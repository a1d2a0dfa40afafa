"""Time set-up in a fresh interpreter and print it as one JSON line.

    python3 perfbench/probe.py --workload NAME --seed N

``import_s`` is the time to import ``torusclass`` and ``torusclass.cli``;
``setup_s`` adds building the first pass's inputs of the workload.  Both
are in seconds at the host's nominal speed (see ``clock.py``).
"""

import argparse
import json

import checkout
from clock import ScaledClock


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    checkout.use_checkout_source()

    with ScaledClock() as clock:
        clock.start()
        import torusclass  # noqa: F401
        import torusclass.cli  # noqa: F401
        _, import_s = clock.stop()
        clock.start()
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, 0)
        _, build_s = clock.stop()
    checkout.check_imported_from_checkout()
    print(json.dumps({"import_s": import_s, "setup_s": import_s + build_s}))


if __name__ == "__main__":
    main()
