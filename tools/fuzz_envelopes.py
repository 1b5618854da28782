"""Count the corrupted envelopes that a decoder answers instead of rejecting.

    python3 tools/fuzz_envelopes.py [repo_dir]

For each family of ``tests/test_serialize.py::FUZZ`` (repo_dir defaults to
this checkout), builds the small envelope, then makes TRIALS (400)
corrupted copies, drawn from a generator seeded with (0, family index):
each overwrites 1 to 3 distinct byte positions with a byte that differs
from the one there. Each copy is decoded and asked the family's query. Prints per family the envelope length, the copies answered
silently (decoded and answered without an error) and the copies that raised
an exception other than QuadsketchError, which a decoder must never do.
Nothing checksums the payload, so silent answers are expected; the count is
the target of a checksum.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
TRIALS = 400


def corrupt(blob: bytes, rng: np.random.Generator) -> bytes:
    buf = bytearray(blob)
    for pos in rng.choice(len(blob), size=int(rng.integers(1, 4)), replace=False).tolist():
        buf[pos] = (buf[pos] + int(rng.integers(1, 256))) % 256
    return bytes(buf)


def main(argv: list[str]) -> int:
    repo = Path(argv[1]) if len(argv) > 1 else REPO
    sys.path[:0] = [str(repo / "src"), str(repo / "tests")]
    from quadsketch.errors import QuadsketchError
    from test_serialize import FUZZ, fuzz_case

    print(f"{'family':<18} {'bytes':>6} {'trials':>6} {'silent':>6} {'non-domain':>10}")
    for k, family in enumerate(FUZZ):
        cls, blob, query = fuzz_case(family)
        rng = np.random.default_rng([0, k])
        silent, foreign = 0, Counter()
        for _ in range(TRIALS):
            try:
                with np.errstate(all="ignore"):  # corrupt doubles may overflow
                    cls.from_bytes(corrupt(blob, rng)).estimate(query)
                silent += 1
            except QuadsketchError:
                pass
            except Exception as exc:  # noqa: BLE001 - counted, not raised
                foreign[type(exc).__name__] += 1
        kinds = " ".join(f"{name}:{k}" for name, k in sorted(foreign.items()))
        print(f"{family:<18} {len(blob):>6} {TRIALS:>6} {silent:>6} {sum(foreign.values()):>10} {kinds}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
