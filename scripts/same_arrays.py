"""Check that .npz files hold the same arrays as reference files.

    python scripts/same_arrays.py REFERENCE CANDIDATE [REFERENCE CANDIDATE ...]

Each CANDIDATE must hold its REFERENCE's array names in the same order,
and each array must have the reference's dtype, shape and bytes. Every
difference is printed as a GitHub Actions ``::error::`` line; the exit
status is 1 if any pair differs, else 0.
"""

import sys

import numpy as np


def differences(reference: str, candidate: str):
    """One message per way ``candidate``'s arrays differ from ``reference``'s."""
    with np.load(reference) as ref, np.load(candidate) as cand:
        if cand.files != ref.files:
            yield f"{candidate}: arrays {cand.files}, {reference} holds {ref.files}"
        for key in ref.files:
            a, b = ref[key], cand[key] if key in cand.files else None
            if b is None or (a.dtype, a.shape, a.tobytes()) != (b.dtype, b.shape, b.tobytes()):
                yield f"{candidate}: array {key} is not {reference}'s"


def main(paths: list[str]) -> int:
    if not paths or len(paths) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for reference, candidate in zip(paths[::2], paths[1::2]):
        for message in differences(reference, candidate):
            print(f"::error::{message}")
            failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
