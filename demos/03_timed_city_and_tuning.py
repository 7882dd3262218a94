"""Timed simulation of a synthetic city, fleet sizing, and tuning.

Sizes the fleet from travel times by Little's law, runs the event-driven
simulator with pickup and travel delays, then tunes the scaling vector by
simulation on the jump chain.
"""

from smwsim import SmwPolicy, TimedConfig, TuneConfig, fleet_requirement, \
    run_timed, tune, vanilla_policy
from smwsim.instances import symmetric_ring

city = symmetric_ring(6, with_times=True)
rate = 2.0  # requests per minute

fr = fleet_requirement(city, rate)
print(f"fleet floor: {fr.k_in_transit:.1f} in transit + "
      f"{fr.k_pickup:.1f} in pickup -> K_fl = {fr.k_fl}")

for slack in (0, 30, 60):
    cfg = TimedConfig(rate, horizon_minutes=20000, k_tot=fr.k_fl + slack)
    rep = run_timed(city, vanilla_policy(city), cfg, with_pickup=True, seed=3)
    print(f"K = K_fl + {slack:>2}: drop fraction {rep.drop_fraction:.4f}, "
          f"mean in transit {rep.mean_in_transit:.1f}, "
          f"mean trip {rep.mean_trip_minutes:.1f} min")

print("\ntuning the scaling vector on the jump chain (small budget)...")
res = tune(city, TuneConfig(budget=100, population=20, steps=5000, K=12,
                            seed=0))
print("tuned alpha:", [round(float(v), 3) for v in res.alpha])
print(f"tuned drop fraction {res.best_objective:.4f}")

cfg = TimedConfig(rate, horizon_minutes=20000, k_tot=fr.k_fl + 30)
rep = run_timed(city, SmwPolicy(city, res.alpha), cfg, with_pickup=True,
                seed=3)
print(f"tuned policy in the timed model: drop fraction {rep.drop_fraction:.4f}")
