"""Where the moment constant C(p, q) is sharp: an exact sharpness map.

For the gauge of the box with half-widths h = (1, A, A), the norm
max(|x_1|, |x_2| / A, |x_3| / A) is a maximum of independent exponentials
of rates 1, A and A under the symmetric exponential measure, so its
moments are closed forms:

    E ||x||^r = Gamma(r+1) * sum_{S != {}} (-1)^(|S|+1) (sum_{k in S} h_k)^(-r).

As A grows the norm approaches the coordinate functional |x_1|, which
attains C(p, q).  The closed form shows the ratio rising toward C(30, 1)
and never passing it.  Monte Carlo cannot show this at p = 30: the 30th
power's mass sits in draws too rare to sample, so a 10^6-sample ratio
reads far below the truth, with a standard error that does not cover the
gap.

Run:  python demos/07_moment_sharpness.py
"""

from sineq import Engine, box_body, cpq, moment_ratio
from sineq.moments import coordinate_norm

P, Q = 30.0, 1.0

print(f"Moment ratio of the gauge of the box (1, A, A) at (p, q) = ({P:g}, {Q:g})")
print("----------------------------------------------------------------------")
print(f"C({P:g}, {Q:g}) = {cpq(P, Q)!r}")
for A in (1.0, 10.0, 100.0, 1e4):
    pair = moment_ratio(box_body([1.0, A, A]), P, Q, 3)
    print(f"  A = {A:<7g} ratio {pair.ratio!r:<20}  gap to C {pair.bound - pair.ratio:.3e}"
          f"   {pair.moment_p.method}, {pair.verdict}")

pair = moment_ratio(coordinate_norm(0), P, Q, 3)
print(f"  |x_1|       ratio {pair.ratio!r:<20}  gap to C {pair.bound - pair.ratio:.3e}"
      f"   {pair.moment_p.method}, {pair.verdict}")

print()
print("The same ratio by Monte Carlo, A = 100")
print("--------------------------------------")
exact = moment_ratio(box_body([1.0, 100.0, 100.0]), P, Q, 3)
mc = moment_ratio(box_body([1.0, 100.0, 100.0]), P, Q, 3,
                  Engine(method="mc", samples=1_000_000, seed=1))
print(f"  {'closed form':<14} {exact.ratio:.6f}")
print(f"  {mc.moment_p.method:<14} {mc.ratio:.6f} ± {mc.ratio_se:.6f}"
      f"   ({(exact.ratio - mc.ratio) / mc.ratio_se:.0f} standard errors below)")
