"""Broker / informed-trader internalisation game.

A numerical library for a two-agent market in which a broker fills an
informed client's flow and hedges in the lit market while each side filters
the other's private information from what it can observe.  The package solves
both agents' deterministic coefficient systems (scalar and matrix Riccati
equations), runs the coupled simulation, and aggregates Monte Carlo
outperformance experiments against standard internalisation benchmarks.
"""

from .analytics import (LEARNING_PARAMS, BenchmarkStats, ExperimentReport, StressCell, StressReport,
                        TTestResult, effective_externalisation,
                        externalisation_quotient, one_sided_t_test, outperformance,
                        report_to_csv, report_to_json, stress_runner, stress_to_csv,
                        stress_to_json)
from .broker import (BrokerCoefficients, existence_diagnostic, export_broker_csv,
                     solve_broker, solve_price_filter_variance, solve_reduced_riccati)
from .errors import (AdmissibilityError, BrokerGameError, ExistenceError,
                     FilterDegeneracyError, IntegrationBlowupError,
                     MetricUndefinedError, ModelInconsistencyError, TableRangeError,
                     SimulationBlowupError, ValidationError)
from .filters import (FlowFilterCoefficients, flow_filter_coefficients, price_filter_gain,
                      trader_filter_gain)
from .odes import (DeterministicTable, StageLattice, TimeGrid, rk4_integrate,
                   solve_scalar_riccati)
from .params import DEFAULT_PARAMS, ModelParams
from .sim import (CoefficientBundle, PathResult, StrategyConfig,
                  build_coefficients, export_filter_csv, export_path_csv,
                  filter_diagnostics, run_experiment, simulate_path, simulate_recorded)
from .trader import TraderCoefficients, export_trader_csv, solve_trader

__version__ = "0.1.0"
