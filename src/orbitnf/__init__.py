"""Polynomial normal forms for contracting polynomial maps along periodic orbits.

The package builds, degree by degree, a coordinate change H at every point of
a periodic orbit that conjugates a cocycle of contracting polynomial fiber
maps to a normal form P containing only sub-resonance terms of the Lyapunov
spectrum.  The coordinate blocks of the cocycle's grading are the Lyapunov
splitting, and the pipeline is

    OrbitCocycle -> monodromy_spectrum (one exponent per coordinate block)
                 -> Spectrum.structure -> SolverContext -> solve_normal_form
                 -> verification

with a JSON-driven CLI (`orbitnf run/list/spectrum/verify`) on top.  The
Lyapunov frames are no solver input: ``SolverContext.frames`` builds them with
``lyapunov_frames`` on first read, one ``LyapunovFrames`` of (K, m, m) stacks,
for the sandwich check and the report.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "grading": [
        "ContractionBudgetError",
        "Spectrum",
        "SubResStructure",
        "contraction_factor",
    ],
    "polymap": [
        "GradedSpace",
        "PolyMap",
        "compose_truncated",
        "invert_truncated",
    ],
    "cocycle": [
        "ClusterGapError",
        "LyapunovFrames",
        "NonContractingError",
        "OrbitCocycle",
        "TailCertificationError",
        "lyapunov_frames",
        "monodromy_spectrum",
        "sandwich_check",
    ],
    "normalform": [
        "NormalFormResult",
        "SeriesBudgetError",
        "SeriesStagnationError",
        "SolverContext",
        "solve_homogeneous_degree",
        "solve_normal_form",
    ],
    "verify": [
        "chart_transitions",
        "centralizer_check",
        "conjugacy_residual",
        "direct_normal_form",
        "direct_solve_oracle",
        "flag_invariance",
        "gauge_compare",
        "iterates",
        "series_vs_direct",
    ],
    "scenarios": ["builtin_names", "build_builtin"],
    "cli": ["main", "run_scenario"],
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN) + ["__version__"]


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
