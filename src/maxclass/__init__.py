"""Exact-arithmetic tools for graded Lie algebras of maximal class of type n.

The package constructs the exceptional family from divided powers, extracts
and validates constituent structure of structure-constant sequences, checks
the polynomial coefficient-vanishing classification by row reduction, and
enforces the Jacobi-derived constraints on candidate sequences.

`import maxclass` loads no submodule: each public name below is imported
from its home module on first access (PEP 562), so a command-line request
pays only for the layers it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "arith": ("ConstructionError", "PrimeField", "binom_mod_p"),
    "divided_powers": ("DividedPowers", "DPElement", "Endo",
                       "SemidirectElement", "make_generators"),
    "exceptional": ("AbelianIdealReport", "ConstructedAlgebra", "ExceptionalParams",
                    "ExceptionalReport", "abelian_ideal_check",
                    "closed_form_betas", "construct", "exceptional_report",
                    "expected_first_length", "expected_lengths",
                    "first_length_coverage", "genfunc_closed_form",
                    "two_path_check"),
    "polycheck": ("ClassifyReport", "classify_admissible_k", "in_small_k_menu"),
    "search": ("SearchReport", "search_sequences"),
    "sequences": ("BetaSequence", "BridgeReport", "Constituent",
                  "ConstituentReport", "JacobiReport", "RationalSeries",
                  "bracket_coeff", "bridge_check", "constituents",
                  "first_constituent_poly", "jacobi_verify",
                  "project_type1", "subalgebra_sequence"),
}

# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        # also how `from maxclass import cli` learns to import a submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime
    module = __import__(f"{__name__}.{_HOME[name]}", fromlist=[name])
    value = getattr(module, name)
    globals()[name] = value
    return value
