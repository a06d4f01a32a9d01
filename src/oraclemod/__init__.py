"""Oracle modalities, nuclei and sheaf computations on finite Heyting frames."""

__version__ = "0.1.0"

from .containers import (
    IndexedPropContainer,
    container_sum,
    forces,
    instance_reducible,
    oracle_modality,
    oracle_modality_bruteforce,
    oracle_modalities_kleene,
    oracle_modality_kleene,
    pred_of_nucleus,
    validate_container,
)
from .frames import (
    Frame,
    FrameElement,
    Poset,
    downset_frame,
    poset_from_relation,
)
from .nuclei import (
    Nucleus,
    NucleusReport,
    dense_elements,
    enumerate_nuclei,
    fixed_points_frame,
    sup_nuclei,
    validate_nucleus,
)
from .theorems import THEOREM_IDS, Budget, TheoremReport, verify_theorems
from .trees import (
    CanonicalSheafElement,
    EquiTree,
    Leaf,
    Node,
    SetContainer,
    delta,
    equifoliate,
    membership,
    modal_eq,
    run_tree_suites,
    sheaf_classify,
    tree_bind,
)

__all__ = [
    # containers
    "IndexedPropContainer", "container_sum", "forces", "instance_reducible",
    "oracle_modality", "oracle_modality_bruteforce", "oracle_modalities_kleene",
    "oracle_modality_kleene", "pred_of_nucleus", "validate_container",
    # frames
    "Frame", "FrameElement", "Poset", "downset_frame", "poset_from_relation",
    # nuclei
    "Nucleus", "NucleusReport", "dense_elements", "enumerate_nuclei",
    "fixed_points_frame", "sup_nuclei", "validate_nucleus",
    # theorems
    "THEOREM_IDS", "Budget", "TheoremReport", "verify_theorems",
    # trees
    "CanonicalSheafElement", "EquiTree", "Leaf", "Node", "SetContainer", "delta",
    "equifoliate", "membership", "modal_eq", "run_tree_suites", "sheaf_classify",
    "tree_bind",
]
