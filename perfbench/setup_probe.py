"""Fresh-process set-up probe: `python3 perfbench/setup_probe.py ORDER...`.

Runs the benchmark's set-up for the given quadrature orders and prints
`ready` once it is done; the parent times spawn -> `ready`.
"""

import sys

import machine

if __name__ == "__main__":
    machine.setup([int(order) for order in sys.argv[1:]])
    print("ready", flush=True)
