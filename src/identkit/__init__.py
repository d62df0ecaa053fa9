"""Structural identifiability of linear compartmental models from graph structure.

The namespace is lazy (PEP 562): ``import identkit`` loads no submodule, and
each public name is imported from its home module on first use.
"""

import importlib

__version__ = "0.1.0"

# The public names of each submodule, space-separated.
_EXPORTS = {
    "model": "CompartmentalModel Param SymbolicMatrix compartmental_matrix from_dict from_json "
    "load_model make_model validate",
    "sympoly": "SparsePoly VarTable",
    "ioeq": "CoefficientMap IOEquation coefficient_map expected_coefficient_count io_equation",
    "graphprops": "",
    "cyclespace": "PathCycleBasis enumerate_io_paths enumerate_simple_cycles incidence_matrix "
    "incidence_rank path_cycle_rank",
    "identcore": "AnalysisReport classify_identifiability edge_formula_check expected_dimension_test "
    "is_identifiable_path_cycle_model jacobian_rank necessary_conditions self_cycles_identifiable",
    "transforms": "ConstructionScript TheoremCertificate add_leak attach_path remove_leaks run_construction",
    "census": "CensusRow census_row census_table",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
