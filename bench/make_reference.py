"""Rebuild bench/reference.json from the current code.

    python3 bench/make_reference.py

The reference pins the CLI output of every seed-free job (byte digests),
the report count of every seeded verification job, and the expansions
that seeded linear combinations are checked against.  Rebuild it only for
a change that is meant to alter those outputs, and say so in CHANGES.md.
"""
import json
import sys

import worker


def main():
    worker.import_library()
    import workloads

    reference = {"digests": {}, "report_counts": {}, "expansions": {}}
    for build in workloads.WORKLOADS.values():
        for job in build(0):
            for section, entries in job.make_reference().items():
                reference[section].update(entries)
    with open(worker.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
