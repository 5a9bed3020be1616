"""HyQSAT reproduction: a hybrid quantum-annealer + CDCL 3-SAT solver.

Reproduction of *HyQSAT: A Hybrid Approach for 3-SAT Problems by
Integrating Quantum Annealer with CDCL* (HPCA 2023).  See DESIGN.md
for the system inventory and EXPERIMENTS.md for paper-vs-measured
results.

Quickstart::

    from repro import HyQSatSolver, random_3sat
    import numpy as np

    formula = random_3sat(50, 210, np.random.default_rng(0))
    result = HyQSatSolver(formula).solve()
    print(result.status, result.iterations)

Public surface (re-exported here):

- SAT substrate: :class:`CNF`, :class:`Clause`, :class:`Lit`,
  :class:`Assignment`, DIMACS I/O, ``to_3sat``.
- Classical solvers: :func:`minisat_solver`, :func:`kissat_solver`,
  :class:`CdclSolver`.
- The hybrid solver: :class:`HyQSatSolver`, :class:`HyQSatConfig`.
- The simulated device: :class:`AnnealerDevice`, :class:`NoiseModel`,
  :class:`ChimeraGraph`.
- Benchmarks: ``BENCHMARKS``, :func:`generate_suite`,
  :func:`random_3sat`.
"""

from repro.annealer import AnnealerDevice, FaultModel, NoiseModel, QpuTimingModel
from repro.benchgen import BENCHMARKS, generate_suite, random_3sat
from repro.cdcl import (
    CdclSolver,
    DratProof,
    SolverConfig,
    SolverResult,
    check_proof,
    kissat_solver,
    minisat_solver,
)
from repro.core import (
    BreakerPolicy,
    HyQSatConfig,
    HyQSatResult,
    HyQSatSolver,
    ResilienceConfig,
)
from repro.embedding import HyQSatEmbedder, MinorminerLikeEmbedder, PlaceAndRouteEmbedder
from repro.resilience import QaUnavailable, ResilientDevice
from repro.ml import Band, ConfidenceBands, GaussianNaiveBayes
from repro.qubo import QuadraticObjective, adjust_coefficients, encode_formula
from repro.sat import CNF, Assignment, Clause, Lit, read_dimacs, to_3sat, write_dimacs
from repro.topology import ChimeraGraph

__version__ = "1.0.0"

__all__ = [
    "AnnealerDevice",
    "Assignment",
    "BENCHMARKS",
    "Band",
    "BreakerPolicy",
    "CNF",
    "CdclSolver",
    "ChimeraGraph",
    "Clause",
    "ConfidenceBands",
    "DratProof",
    "FaultModel",
    "GaussianNaiveBayes",
    "HyQSatConfig",
    "HyQSatEmbedder",
    "HyQSatResult",
    "HyQSatSolver",
    "Lit",
    "MinorminerLikeEmbedder",
    "NoiseModel",
    "PlaceAndRouteEmbedder",
    "QaUnavailable",
    "QpuTimingModel",
    "QuadraticObjective",
    "ResilienceConfig",
    "ResilientDevice",
    "SolverConfig",
    "SolverResult",
    "adjust_coefficients",
    "check_proof",
    "encode_formula",
    "generate_suite",
    "kissat_solver",
    "minisat_solver",
    "random_3sat",
    "read_dimacs",
    "to_3sat",
    "write_dimacs",
    "__version__",
]
