"""Drop-probability exponents on the two-node textbook network.

Computes the exponent under uniform scaling, finds the exponent-optimal
scaling vector by LP, and prints the most likely demand pattern that
drains the critical subset.
"""

import math

from smwsim import gamma, most_likely_path, optimal_alpha, uniform_alpha
from smwsim.instances import example1

net = example1()
print("demand matrix phi:")
print(net.phi)
print("edges (supply, demand):", sorted(net.edges))

alpha = uniform_alpha(2)
res = gamma(net, alpha)
print(f"\nuniform alpha={alpha}: gamma={res.gamma:.6f} "
      f"(= 0.5 ln 2 = {0.5 * math.log(2):.6f})")
print("critical subsets:", res.critical_subsets)

alpha_star, res_star = optimal_alpha(net, eps_floor=1e-3)
print(f"\noptimal alpha={alpha_star}: gamma={res_star.gamma:.6f} "
      f"(~ twice the uniform exponent)")

ratio = res.gamma / res_star.gamma
print(f"\nvanilla MaxWeight exponent {res.gamma:.6f}, optimal "
      f"{res_star.gamma:.6f}, ratio {ratio:.4f} (always >= 1/n)")

path = most_likely_path(net, alpha)
print("\nmost likely demand pattern draining the critical subset:")
print(path.f_star)
print(f"drain time {path.drain_time:.3f}, KL rate {path.kl_rate:.6f}, "
      f"product {path.drain_time * path.kl_rate:.6f} = gamma")
