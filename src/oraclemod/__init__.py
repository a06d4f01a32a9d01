"""Oracle modalities, nuclei and sheaf computations on finite Heyting frames.

The public names resolve on first access (PEP 562): reading one imports
the module that defines it, and the name is cached here afterwards. So
``import oraclemod``, and the numpy-free modules ``pca``, ``weihrauch``
and ``trees``, load no numpy until a frame-side name is read.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "containers": (
        "IndexedPropContainer", "container_sum", "forces", "instance_reducible",
        "oracle_modality", "oracle_modality_bruteforce", "oracle_modalities_kleene",
        "oracle_modality_kleene", "pred_of_nucleus", "validate_container",
    ),
    "frames": ("Frame", "FrameElement", "Poset", "downset_frame", "poset_from_relation"),
    "nuclei": (
        "Nucleus", "NucleusReport", "dense_elements", "enumerate_nuclei",
        "fixed_points_frame", "sup_nuclei", "validate_nucleus",
    ),
    "theorems": ("THEOREM_IDS", "Budget", "TheoremReport", "verify_theorems"),
    "trees": (
        "CanonicalSheafElement", "EquiTree", "Leaf", "Node", "SetContainer", "delta",
        "equifoliate", "membership", "modal_eq", "run_tree_suites", "sheaf_classify",
        "tree_bind",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
