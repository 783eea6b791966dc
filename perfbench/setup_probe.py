"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed> <scratch dir>``.

Set-up is everything before the first record is simulated: importing the
simulator, config and variant resolution, workload generator construction
and ``System`` assembly for every cell of one round; for ``reproduce``,
importing the campaign and experiment layers, expanding the spec and
opening an empty store.  ``run.py`` runs several probes and reports their
median as ``setup_s``.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    workload, seed, scratch = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    if workload == "reproduce":
        from perfbench import reproduce

        reproduce.set_up(seed, scratch)
    else:
        from perfbench import cells

        cells.set_up(cells.SIM_WORKLOADS[workload], seed)
    print(time.perf_counter() - _START)


if __name__ == "__main__":
    main()
