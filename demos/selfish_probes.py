"""How much can a user lie before the bargain collapses?

A selfish user understates their declared cost by a fraction gamma of
its magnitude. Small lies shift the common discount; big lies push the
declared total below the cooperative cost and the deal is off. This
walks the reference day through the solo limits, one concrete lie, and
the Monte Carlo picture when everyone else lies at random.
"""

import numpy as np

from gridbargain import (allocate, dishonest_benefit, gamma_solo_bound,
                         manipulation_interval, selfish_cost)
from gridbargain.bargaining import PREDICATES, region_probabilities
from gridbargain.fixtures import REFERENCE_FAVORABLE


def main():
    case = REFERENCE_FAVORABLE
    d = case.d
    r = d.shape[0]
    eps0 = (float(d.sum()) - case.j_soc) / r

    print(f"surplus budget: r*eps0 = {r * eps0:.2f} c\n")
    print("lying alone, the deal survives up to gamma <=")
    for i in range(r):
        print(f"  u{i + 1}: {gamma_solo_bound(d, eps0, i):.4f}")

    gamma = np.array([0.0, 0.05, 0.05, 0.0])
    res = allocate(selfish_cost(d, gamma), case.j_soc)
    print(f"\nwith u2 and u3 each shaving 5%: discount drops "
          f"{eps0:.4f} -> {res.epsilon:.4f} c, deal "
          f"{'survives' if res.success else 'collapses'}")
    for i in range(r):
        b = dishonest_benefit(d, gamma, i)
        tag = "gains" if b > 0 else "loses"
        print(f"  u{i + 1} {tag} {abs(b):6.2f} c vs honesty")
    iv = manipulation_interval(d, eps0, gamma, 1)
    print(f"  a lie by u2 only pays within gamma in ({iv.lower:.4f}, {iv.upper:.4f}]")

    print("\neveryone but u1 lying uniformly at random (1e6 draws):")
    regions = region_probabilities(d, eps0, (0,), 1_000_000, seed=0)
    for name in PREDICATES:
        rp = regions[name]
        print(f"  {name:22s} {100 * rp.probability:6.2f}% "
              f"(+- {100 * rp.stderr:.3f} pp)")


if __name__ == "__main__":
    main()
