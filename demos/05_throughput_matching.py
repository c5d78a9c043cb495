"""Throughput maximization as online bipartite matching.

Each unit job becomes an offline vertex carrying its weight; each time step
contributes k online vertices (one per machine) adjacent to every job whose
window covers the step.  Matchings and schedules translate back and forth
exactly, so any online matching algorithm becomes an online scheduler.

The randomized player perturbs weights by w * (1 - exp(x - 1)) with one
uniform draw per job and picks greedily; its Monte Carlo mean lands above
the 1 - 1/e mark that plain greedy gives up on adversarial inputs.
"""
from fractions import Fraction

from schedlab import (
    Instance,
    Job,
    estimate_ratio,
    greedy_baseline,
    matching_to_schedule,
    offline_throughput_opt,
    perturbed_greedy,
    reduce_to_matching,
    throughput_instance,
    upper_triangular_instance,
)

inst = throughput_instance(jobs=12, horizon=5, k=2, seed=3)
mi = reduce_to_matching(inst)
print(f"instance: {len(inst.jobs)} weighted jobs, k = {inst.k} machines")
print(f"matching view: {len(mi.job_ids)} offline vertices,"
      f" {len(mi.online_vertices())} online vertices over steps {tuple(mi.steps.tolist())}")
print()

opt, _ = offline_throughput_opt(inst)
m = perturbed_greedy(mi, seed=1)
sched = matching_to_schedule(mi, m)
print(f"one perturbed-greedy run (seed 1): weight {float(m.weight)}"
      f" of OPT {float(opt)}")
print(f"  schedule: {len(sched.assignments)} jobs placed,"
      f" {len(sched.misses)} dropped")
print()

print("the trap where deterministic greedy stalls:")
delta = Fraction(1, 10)
trap = Instance.of("throughput",
                   [Job(0, 0, 1, w=1), Job(1, 0, 2, w=1 + delta)], k=1)
trap_mi = reduce_to_matching(trap)
trap_opt, _ = offline_throughput_opt(trap)
greedy_w = greedy_baseline(trap_mi).weight
est = estimate_ratio(trap, trials=2000, seed=0)
print(f"  tight job worth 1 next to a loose job worth {float(1 + delta)},"
      f" OPT = {float(trap_opt)}")
print(f"  deterministic greedy grabs the loose job first and keeps"
      f" {float(greedy_w)}")
print(f"  perturbed greedy mean over 2000 seeds: {est.mean_alg:.2f}"
      f" (ratio {est.ratio:.4f} +- {est.stderr / est.opt:.4f})")
print()

print("ratio stays put as machines scale:")
for k in (1, 2, 4):
    fam = upper_triangular_instance(k=k, levels=6)
    est = estimate_ratio(fam, trials=2000, seed=0)
    print(f"  k = {k}: mean ratio {est.ratio:.4f}  (floor 0.6121)")
