"""The entropy inequalities behind the dilation comparisons.

One dimension first: for any probability measure mu on [0, inf) and any
bounded nondecreasing f >= 0,

    Ent(f) <= - int f(x) (1 + ln mu((x, inf))) dmu(x).

For step functions both sides evaluate exactly through tail s*ln(s)
differences, tail indicators achieve equality, and a measure with a top
atom pushes the right side to +inf whenever f is positive there.  The
multidimensional version trades the tail weight for (|z|^2/2 - n), and
subadditivity splits the product-measure entropy into averaged
per-coordinate slice entropies.

Run:  python demos/03_entropy_inequalities.py
"""

import math

import numpy as np

from sineq import (
    Engine,
    MonotoneRadialFunction,
    StepFunction,
    TailMeasure1D,
    check_lemma_1d,
    check_lemma_multidim,
    check_subadditivity,
    complement_indicator,
    cylinder_body,
    inverse_tail,
    polydisc,
)
from sineq.entropy import entropy

print("1-D inequality, exact step-function oracle")
print("------------------------------------------")
exp1d = TailMeasure1D.exponential()
radial = TailMeasure1D.radial_mu()

f = StepFunction.tail_indicator(math.log(2))
rep = check_lemma_1d(f, exp1d)
print(f"tail indicator at ln 2, exponential measure: "
      f"LHS {rep.lhs:.7f} = RHS {rep.rhs:.7f}  (equality case, -s ln s at s=1/2)")

f = StepFunction.tail_indicator(math.sqrt(2 * math.log(2)))
rep = check_lemma_1d(f, radial)
print(f"same under the radial factor measure       : "
      f"LHS {rep.lhs:.7f} = RHS {rep.rhs:.7f}")

f = StepFunction((0.5, 1.5), (0.2, 1.0, 1.7))
rep = check_lemma_1d(f, radial)
print(f"a 3-level staircase, radial measure        : "
      f"LHS {rep.lhs:.7f} < RHS {rep.rhs:.7f}  slack {rep.slack:.7f}")

atoms = TailMeasure1D.discrete([0.0, 1.0, 2.0], [0.5, 0.3, 0.2])
rep = check_lemma_1d(StepFunction((1.5,), (0.0, 1.0)), atoms)
print(f"discrete measure, f positive at the top atom: RHS = {rep.rhs} "
      "(vacuously true)")

print()
print("Inverse tail function H(y) = inf{t : tail(t) <= y}")
print("---------------------------------------------------")
print(f"radial measure, y = e^-2      : H = {inverse_tail(radial, math.exp(-2)):.6f} (= 2)")
print(f"exponential measure, y = 1/4  : H = {inverse_tail(exp1d, 0.25):.6f} (= ln 4)")
print(f"point mass at 1, y = 1/2      : H = "
      f"{inverse_tail(TailMeasure1D.discrete([1.0], [1.0]), 0.5):.1f}")

print()
print("Entropy functional basics")
print("-------------------------")
print(f"constant function        : Ent = {entropy(StepFunction((), (3.0,)), radial):.2e}")
half_set = StepFunction.tail_indicator(math.log(2))
print(f"indicator, mass 1/2      : Ent = {entropy(half_set, exp1d):.7f} (= ln(2)/2)")
print(f"smooth callable fallback : Ent = {entropy(lambda x: 1 - np.exp(-x), exp1d):.7f}"
      " (graded quadrature)")

print()
print("Multidimensional inequality: Ent(g) <= int g (|z|^2/2 - n)")
print("-----------------------------------------------------------")
g = complement_indicator(cylinder_body(math.sqrt(2 * math.log(2)), 1))
rep = check_lemma_multidim(g, 1, engine=Engine(method="exact"))
print(f"g = 1 - 1_disc at half measure: LHS {rep.lhs:.7f} = RHS {rep.rhs:.7f} "
      "(cylinders are tight)")

g = complement_indicator(polydisc([1.0, 1.0]))
rep = check_lemma_multidim(g, 2, engine=Engine(method="exact"))
print(f"g = 1 - 1_polydisc in C^2     : LHS {rep.lhs:.7f} < RHS {rep.rhs:.7f} "
      f"slack {rep.slack:.7f}")
mc = check_lemma_multidim(g, 2, engine=Engine(method="mc", samples=300_000, seed=5))
print(f"  Monte Carlo cross-check     : slack {mc.slack:.5f} ± {mc.std_error:.5f}")

print()
print("Subadditivity: product entropy vs averaged slice entropies")
print("-----------------------------------------------------------")
rep = check_subadditivity(g, 2, engine=Engine(method="exact"))
print(f"polydisc complement, exact   : LHS {rep.lhs:.6f} <= RHS {rep.rhs:.6f}")
gc = complement_indicator(cylinder_body(1.0, 2))
rep = check_subadditivity(gc, 2, engine=Engine(method="exact"))
print(f"one-coordinate dependence    : slack {rep.slack:.2e} (equality)")
smooth = check_subadditivity(
    MonotoneRadialFunction(2, 1.0, lambda r: (1 - np.exp(-r)).prod(axis=1)),
    2, engine=Engine(samples=30_000, seed=6))
print(f"smooth product function (MC) : slack {smooth.slack:+.5f} ± {smooth.std_error:.5f}"
      " (products are tight)")
