"""Nonsmooth conjugate subgradient optimization on the sphere and SPD matrices."""

from .manifolds import (SPD, BasePointMismatchError, DegenerateRetractionError,
                        DegenerateTransportError, ManifoldPoint, Sphere,
                        TangentVector, check_point, check_tangent, distance,
                        inner, norm, retract, same_point, transport_between)
from .objectives import (AmbiguousDirectionError, CountingOracle, EvalStats,
                         GeometricMedian, NonFiniteRayError,
                         RayleighQuotientMax, SpdCenterOfMass,
                         generate_instance, instance_from_json,
                         instance_to_json)
from .linesearch import (LineSearchConfig, LineSearchResult,
                         LineSearchStallError, RayObjective, irp, line_search)
from .solver import (IterationRecord, SolveResult, SolverConfig,
                     SolveStalledError, combine_subgradient,
                     conjugate_subgradient_solve, descent_violations,
                     direction_update, fr_direction_check,
                     norm_recursion_residual, orthogonality_violations,
                     select_lambda, subgradient_descent_solve,
                     trajectory_from_jsonl, trajectory_to_jsonl)
from .bench import (BenchmarkRecord, EmptySuiteError, ProfileCurve, SuiteSpec,
                    adjudicate, adjudicate_all, initial_point,
                    performance_profile, records_from_csv, records_to_csv,
                    run_suite, summarize)

__version__ = "0.1.0"
