"""Sparse marked random graphs: samplers, local empirical measures, rate functions.

Each public name is imported from its module on first access (PEP 562), so
``import graphld`` loads none of the modules and a CLI command loads only
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# the public names of each module, in the order of ``__all__``
_PUBLIC = {
    "trees": (
        "CanonicalTree",
        "HalfEdgeTree",
        "LabeledTree",
        "branch_views",
        "canonicalize",
        "split_at_child",
        "truncate",
    ),
    "measures": (
        "DegreeLaw",
        "DepthChain",
        "PairMeasure",
        "TreeMeasure",
        "entropy",
        "is_admissible",
        "mtp_check",
        "pair_marginals",
        "pair_measure",
        "relative_entropy",
        "size_bias",
        "tv_distance",
    ),
    "samplers": (
        "MarkedGraph",
        "ModelConfig",
        "assign_marks",
        "integer_degree_counts",
        "make_rng",
        "sample_cm",
        "sample_er",
        "sample_fe",
        "sample_sized_biased_gw",
        "sample_ugwt",
    ),
    "empirical": (
        "component_measure",
        "component_view",
        "empirical_functional",
        "mtp_check_graph",
        "neighborhood_measure",
    ),
    "rates": (
        "ExtensionKernel",
        "RateReport",
        "ReferenceLaw",
        "combinatorial_rate",
        "component_rate",
        "cond_extension_law",
        "edge_density_rate",
        "edge_mark_intensity",
        "ensemble_reference",
        "extension_chain",
        "extension_kernel",
        "intermediate_rate",
        "leaf_cond_law",
        "leaf_indep_law",
        "matching_entropy",
        "matching_entropy_sum",
        "nbd_rate",
        "nbd_rate_generic",
        "one_step_extension",
        "vertex_only_rate",
    ),
    "gibbs": ("GibbsProblem", "GibbsSolution", "MCReport", "conditional_mc", "delta_sweep"),
}
_MODULE = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *_MODULE]


def __getattr__(name):
    module = _MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
