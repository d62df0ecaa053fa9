"""Structural identifiability of linear compartmental models from graph structure."""

__version__ = "0.1.0"

from .model import (
    CompartmentalModel,
    Param,
    SymbolicMatrix,
    compartmental_matrix,
    from_dict,
    from_json,
    load_model,
    make_model,
    validate,
)
from .sympoly import SparsePoly, VarTable
from .ioeq import CoefficientMap, IOEquation, coefficient_map, expected_coefficient_count, io_equation
from .cyclespace import (
    PathCycleBasis,
    enumerate_io_paths,
    enumerate_simple_cycles,
    incidence_matrix,
    incidence_rank,
    path_cycle_rank,
)
from .identcore import (
    AnalysisReport,
    classify_identifiability,
    edge_formula_check,
    expected_dimension_test,
    is_identifiable_path_cycle_model,
    jacobian_rank,
    necessary_conditions,
    self_cycles_identifiable,
)
from .transforms import (
    ConstructionScript,
    TheoremCertificate,
    add_leak,
    attach_path,
    remove_leaks,
    run_construction,
)
from .census import CensusRow, census_row, census_table

__all__ = [name for name in dir() if not name.startswith("_")]
