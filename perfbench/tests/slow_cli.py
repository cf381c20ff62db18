"""``repro.cli`` with a delay injected into ``repro.seq.read_fasta``.

The sensitivity test spawns this in place of ``python -m repro.cli`` so that
the program child pays the same injected delay as the benchmark process.
"""

import functools
import sys
import time

import repro.seq

DELAY_S = 0.25


def slow(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        time.sleep(DELAY_S)
        return fn(*args, **kwargs)

    return wrapper


if __name__ == "__main__":
    repro.seq.read_fasta = slow(repro.seq.read_fasta)
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
