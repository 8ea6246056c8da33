"""Block-seeded sampling: why every number here is replayable.

Draws come in fixed blocks, each from its own PCG64DXSM generator seeded
by the one integer seed | stream << 64 | block << 128, so a block's
content depends only on (seed, stream, block).  Estimates reduce each
block in fixed sub-blocks and add the partial sums with exact summation,
so the same configuration gives the same bits no matter how the work was
scheduled.

What a block holds and how it is reduced is versioned by the sampling
contract.  Since contract 2 a row is the vector of coordinate radii
(|z_1|, ..., |z_n|), one uniform per coordinate through the radial
quantile: the bodies are invariant under rotating each z_k, so the radii
are all a check reads.  Contract 3 keeps those rows and reduces a block
``integrate.SUB`` rows at a time.  Contract 4 keeps them too and hands a
sub-block's columns over as rows, each summed pairwise, with the dot
product of each pair of columns summed exactly over pieces of
``integrate.PIECE`` rows.  Contract 5 keeps all that and draws each block
from its own PCG64DXSM generator instead of the Philox counter of the
earlier contracts, which takes less than half the time per draw: every
seeded number below moved, none of their laws did.

Run:  python demos/06_reproducibility.py
"""

import numpy as np

from sineq import MeasureKind, SampleStream, complex_gaussian, mc_measure, polydisc
from sineq.integrate import SAMPLING_CONTRACT, chunk_indices, draw_points


def draw(n, stream, count):
    """The coordinate radii of the first ``count`` points of ``stream`` in
    C^n, block by block."""
    return np.concatenate([draw_points(complex_gaussian(n), stream, block, take)
                           for block, take in chunk_indices(count)])


print("Identical (seed, stream, block) -> identical draws")
a = draw_points(complex_gaussian(2), SampleStream(42, stream_index=0), 3, 5)
b = draw_points(complex_gaussian(2), SampleStream(42, stream_index=0), 3, 5)
print(f"  redraw bit-identical: {np.array_equal(a, b)}")
c = draw_points(complex_gaussian(2), SampleStream(42, stream_index=1), 3, 5)
print(f"  different stream differs: {not np.array_equal(a, c)}")

print()
print(f"Sampling contract {SAMPLING_CONTRACT}: a row is the radii (|z_1|, |z_2|)")
print(f"  first row: {a[0].tolist()}")
radial = draw_points(MeasureKind("radial-mu", 2), SampleStream(42, stream_index=0), 3, 5)
print(f"  same bits as the radial factor measure: {np.array_equal(a, radial)}")

print()
print("Sample content does not depend on how much you ask for")
small = draw(1, SampleStream(7), 1000)
large = draw(1, SampleStream(7), 500_000)
print(f"  first 1000 of 500k == the 1000-draw: {np.array_equal(small, large[:1000])}")

print()
print("Estimates are invariant to the degree of parallelism")
body = polydisc([1.0, 1.0])
one = mc_measure(body, complex_gaussian(2), samples=400_000, seed=3, workers=1)
four = mc_measure(body, complex_gaussian(2), samples=400_000, seed=3, workers=4)
print(f"  workers=1 : {one.value!r}")
print(f"  workers=4 : {four.value!r}")
print(f"  bit-identical: {one == four}")

print()
print("The CLI inherits this: rerunning any command with the same")
print("configuration (including --seed) writes byte-identical output, e.g.")
print("  sineq verify --body polydisc:r=1,1 --engine mc --seed 3 --output out.jsonl")
