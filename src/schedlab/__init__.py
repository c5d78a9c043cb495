"""Online scheduling laboratory.

Three models built on one job type: machine minimization for unit jobs
(scaled earliest-deadline-first against an exact offline oracle, with a
fractional feasibility certificate), arbitrary lengths under a common
deadline (the phase scheduler), and throughput maximization on k machines
(reduced to online vertex-weighted bipartite matching).  An adversarial
release game probes how few machines an online player can get away with.
"""

from .adversary import (AdversaryState, AggregateGame, GameTranscript,
                        aggregate_game, alpha_edf_player, counting_bounds,
                        crossover_n, offline_witness, play_game,
                        scaling_bound_report)
from .core import (ContractViolation, GridJobs, Instance, Job,
                   MachineProfile, ParseError, Schedule, UnitJobs,
                   ValidationError, audit_schedule, dump_json, feasible_slot,
                   read_instance, schedule_cost, time_grid, unit_columns,
                   validate_instance, write_instance)
from .equal_deadline import (EqualDeadlineTranscript, classify, phase_bounds,
                             phase_split, run_equal_deadline)
from .generators import (adversary_instance, equal_deadline_instance,
                         generate, random_unit_instance, throughput_instance,
                         upper_triangular_instance)
from .online_min import (EULER, CertificateReport, FractionalCertificate,
                         OnlineState, OnlineTranscript, build_certificate,
                         ceil_times, check_certificate, resolve_alpha,
                         run_alpha_edf)
from .oracle import (IncrementalOff, brute_force_feasible, edf_simulate,
                     flow_feasible, off_prefix_series, off_unit,
                     offline_throughput_opt, volume_lower_bound)
from .throughput import (Matching, MatchingInstance, RatioEstimate,
                         batched_greedy_weights, edf_throughput_unweighted,
                         estimate_ratio, greedy_baseline,
                         matching_to_schedule, perturbed_greedy,
                         reduce_to_matching, schedule_to_matching)

__version__ = "0.1.0"

__all__ = [
    "AdversaryState", "AggregateGame", "GameTranscript", "aggregate_game",
    "alpha_edf_player", "counting_bounds", "crossover_n", "offline_witness",
    "play_game", "scaling_bound_report", "ContractViolation", "GridJobs",
    "Instance", "Job", "MachineProfile", "ParseError", "Schedule", "UnitJobs",
    "ValidationError", "audit_schedule", "dump_json", "feasible_slot",
    "read_instance", "schedule_cost", "time_grid", "unit_columns",
    "validate_instance", "write_instance",
    "EqualDeadlineTranscript", "classify", "phase_bounds", "phase_split",
    "run_equal_deadline",
    "adversary_instance", "equal_deadline_instance", "generate",
    "random_unit_instance", "throughput_instance", "upper_triangular_instance",
    "EULER", "CertificateReport", "FractionalCertificate", "OnlineState",
    "OnlineTranscript", "build_certificate", "ceil_times", "check_certificate",
    "resolve_alpha", "run_alpha_edf", "IncrementalOff", "brute_force_feasible",
    "edf_simulate", "flow_feasible", "off_prefix_series", "off_unit",
    "offline_throughput_opt", "volume_lower_bound", "Matching",
    "MatchingInstance", "RatioEstimate", "batched_greedy_weights",
    "edf_throughput_unweighted", "estimate_ratio", "greedy_baseline",
    "matching_to_schedule", "perturbed_greedy", "reduce_to_matching",
    "schedule_to_matching",
]
