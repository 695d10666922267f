"""The benchmark's calibration kernel: a frozen copy of the `rational`,
`geometry` and `mesh` modules of proximesh, copied unchanged from commit
0bc8645.

The machine the benchmark was built on changes speed by up to a factor
of two within minutes, and a build made with this copy slows down and
speeds up with the library's own builds and suite passes. Each benchmark
process times one fixed build with it before it imports the library
under test, and a run rescales its figures by the median of those
times. Nothing in the library under test reaches this copy, so a faster
or slower library shows in full. Changing these modules changes the
scale of every rescaled figure.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

SITES = 40
SEED = 77_777
# A round figure near the kernel's time on the machine the benchmark was
# built on (2-core VM, Python 3.11), so that rescaled figures read close
# to raw ones there.
REFERENCE_S = 0.5


def calibrate() -> float:
    """Seconds for one triangulation of SITES fixed uniform sites."""
    from .geometry import Point2
    from .mesh import SiteSet, triangulate

    rng = random.Random(SEED)
    points = [Point2(Fraction(rng.random()), Fraction(rng.random()))
              for _ in range(SITES)]
    start = time.perf_counter()
    triangulate(SiteSet(points))
    return time.perf_counter() - start
