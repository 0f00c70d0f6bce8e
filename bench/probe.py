"""Times one cold set-up in a fresh interpreter.

Usage: python3 bench/probe.py WORKLOAD_KIND SIMULATOR SRC_DIR CATALOG_JSON

Prints the set-up time at reference host speed and as measured (see
hostspeed.py). What set-up covers is defined once, in program.py, for this
probe and for the pipeline alike.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402

import hostspeed  # noqa: E402
import program  # noqa: E402


def main() -> None:
    kind, simulator, src, catalog_path = sys.argv[1:5]
    with hostspeed.Sampler() as sampler:
        sys.path.insert(0, src)
        program.set_up(kind, simulator, catalog_path, lambda: None)
        ended = time.perf_counter()
        sampler.sample()
    measured, scaled = sampler.at_reference(STARTED, ended)
    print(repr(scaled), repr(measured))


if __name__ == "__main__":
    main()
