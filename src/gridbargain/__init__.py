"""Cooperative microgrid scheduling, cost allocation, and resilience.

A library for day-ahead energy cooperation between microgrid users:
weather-conditioned renewable forecasts, pooled and individual
scheduling, a fully distributed variant of the pooled solver, averaging
consensus for decentralized cost allocation, and the bargaining algebra
that splits the cooperative surplus and quantifies how much selfish
cost misreporting the scheme survives.
"""

from .bargaining import (AllocationResult, Interval, RegionProbability, allocate,
                         dishonest_benefit, gamma_solo_bound, manipulation_interval,
                         region_probabilities, resilience_report, selfish_cost)
from .codes import CodesRun, RoundMessage, convergence_trace, dump_message_log, run_codes
from .consensus import (ConsensusRun, allocate_from_consensus, metropolis_weights,
                        run_average_consensus)
from .errors import (DisconnectedGraph, FileError, GridBargainError, Infeasible,
                     InvariantViolation, KindMismatch, LengthMismatch, NegativeGamma,
                     NoConvergence, SolverStall, TooFewScenarios, ZeroIdealCost)
from .io import (ExperimentConfig, build_pools, data_path, load_experiment,
                 load_model, write_csv, write_json)
from .model import (ConstantBdc, DesdParams, GridLimits, Horizon, MicrogridModel,
                    PiecewiseSocBdc, PriceProfile, Pv, UserSpec, Wt, soc_trajectory,
                    validate_model)
from .rg_forecast import (RgForecastResult, ScenarioPool, WeatherForecast,
                          classify_scenarios, forecast_all, predict_rg)
from .scheduling import (IndividualOutcome, SocialScheduleOutcome, bdc_cost,
                         individual_costs, solve_individual, solve_social, trading_cost)

__version__ = "0.1.0"
