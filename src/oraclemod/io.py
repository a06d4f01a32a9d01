"""JSON readers and writers for the on-disk formats used by the CLI.

``load_json`` is the one JSON parser of the package, and it refuses an
object that writes one key twice. Frame elements serialize as sorted label
arrays (``["p","q"]``); where JSON forces a string key, the comma-joined
form is used instead (bottom is the empty string), so a poset label must be
non-empty and hold no comma. The readers here are the one place where a
JSON element becomes a carrier index: a nucleus table, always under
``"table"``, is read into an index array, checked to name each element
once, and a container into the index arrays of
``IndexedPropContainer.of_indices``. An element spelled as these writers
spell it, key or label list, costs one dict lookup
(``Frame.element_index``); any other spelling, and every error message,
goes through ``Frame.element``.
The term-side readers need only ``pca`` and ``weihrauch``; the frame-side
readers import ``frames``, ``containers`` and numpy in their own bodies, so
reading a Weihrauch predicate or an answer set loads no numpy.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .errors import FrameMismatch, OracleModError
from .pca import DEFAULT_FUEL, Term, parse_term
from .weihrauch import ExtWeihrauchPredicate

if TYPE_CHECKING:
    import numpy as np

    from .containers import IndexedPropContainer
    from .frames import Frame, FrameElement, Poset


def _object(pairs: list) -> dict:
    """A JSON object that names each key once."""
    d = {}
    for k, v in pairs:
        if k in d:
            raise OracleModError(f"JSON object lists key {k!r} twice")
        d[k] = v
    return d


def load_json(path: str | Path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_object)
        except UnicodeDecodeError as e:
            raise OracleModError(str(e)) from e
        except RecursionError as e:
            raise OracleModError(f"{path}: JSON nests too deeply to read") from e


# -- posets and frames --------------------------------------------------


def _is_strings(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def _field(d: Mapping, key: str, what: str):
    """``d[key]``, or an ``OracleModError`` naming the field ``what`` lacks."""
    if key not in d:
        raise OracleModError(f'{what} has no "{key}" field')
    return d[key]


def poset_from_dict(d: Mapping) -> Poset:
    from . import frames

    if not isinstance(d, Mapping):
        raise OracleModError("a poset must be a JSON object")
    elements, le = _field(d, "elements", "poset"), d.get("le", [])
    if not _is_strings(elements):
        raise OracleModError('poset "elements" must be a list of string labels')
    for x in elements:
        if not x or "," in x:
            raise OracleModError(f"poset label {x!r} is empty or contains a comma")
    if not (isinstance(le, list) and all(_is_strings(p) and len(p) == 2 for p in le)):
        raise OracleModError('poset "le" must be a list of [lower, upper] label pairs')
    return frames.poset_from_relation(elements, [tuple(p) for p in le])


def load_frame(path: str | Path) -> Frame:
    from . import frames

    return frames.downset_frame(poset_from_dict(load_json(path)))


def element_to_json(el: FrameElement) -> list[str]:
    return list(el.labels)


def _index_from_json(frame: Frame, v) -> int:
    """The carrier index of a JSON element: one lookup in
    ``Frame.element_index`` for an element's key or label list as written
    here, else through ``Frame.element`` for any other spelling (``"b,a"``,
    ``"a,,b"``, a label named twice) and for a label list that names no
    element, which it refuses."""
    if isinstance(v, str):
        key = v
    elif _is_strings(v):
        key = tuple(v)
    else:
        raise OracleModError(
            f"a frame element must be a label list or a comma-joined string, not {v!r}"
        )
    index = frame.element_index.get(key)
    if index is None:
        index = frame.element([x for x in v.split(",") if x] if key is v else v).index
    return index


# -- nuclei ---------------------------------------------------------------


def nucleus_table_to_dict(frame: Frame, table) -> dict:
    """A table over the carrier as {element key: label list}, with one list
    object per distinct value, so that a report renders each list once."""
    import numpy as np

    keys, labels = frame.element_keys, frame.element_labels
    values = np.asarray(table).tolist()
    lists = {v: list(labels[v]) for v in set(values)}
    return {keys[i]: lists[v] for i, v in enumerate(values)}


def nucleus_table_from_dict(frame: Frame, d: Mapping) -> np.ndarray:
    import numpy as np

    table = _field(d, "table", "nucleus file") if isinstance(d, Mapping) else d
    if not isinstance(table, Mapping):
        raise OracleModError("a nucleus table must be a JSON object")
    out = [-1] * len(frame)
    for k, v in table.items():
        i = _index_from_json(frame, k)
        if out[i] >= 0:
            raise OracleModError(
                f"nucleus table lists element {list(frame.element_labels[i])!r} twice")
        out[i] = _index_from_json(frame, v)
    if -1 in out:
        raise FrameMismatch("nucleus table is not total on the carrier")
    return np.array(out, dtype=np.int32)


# -- containers -------------------------------------------------------------


def container_from_dict(frame: Frame, d: Mapping) -> IndexedPropContainer:
    from . import containers

    if not isinstance(d, Mapping):
        raise OracleModError("a container must be a JSON object")
    shapes = _field(d, "shapes", "container")
    if not _is_strings(shapes):
        raise OracleModError('container "shapes" must be a list of strings')
    declared: set[str] = set()
    for a in shapes:
        if a in declared:
            raise OracleModError(f'container "shapes" lists {a!r} twice')
        declared.add(a)
    if not all(isinstance(d.get(k, {}), Mapping) for k in ("pred", "extent")):
        raise OracleModError('container "pred" and "extent" must be JSON objects')
    pred = _field(d, "pred", "container")
    for a in shapes:
        if a not in pred:
            raise OracleModError(f'container "pred" has no entry for shape {a!r}')
    for key in ("pred", "extent"):
        for a in d.get(key, {}):
            if a not in declared:
                raise OracleModError(f'container "{key}" names undeclared shape {a!r}')
    prd = [_index_from_json(frame, pred[a]) for a in shapes]
    extent = d.get("extent", {})
    ext = [_index_from_json(frame, extent[a]) if a in extent else frame.top_index
           for a in shapes]
    return containers.IndexedPropContainer.of_indices(frame, shapes, ext, prd)


# -- realizability -------------------------------------------------------------


def _is_entry(entry, k: int) -> bool:
    what = f"Weihrauch predicate entry {k}"
    return (
        isinstance(entry, Mapping)
        and isinstance(_field(entry, "instance", what), str)
        and isinstance(_field(entry, "families", what), list)
        and all(_is_strings(family) for family in entry["families"])
    )


def weihrauch_predicate_from_dict(d: Mapping, fuel: int = DEFAULT_FUEL) -> ExtWeihrauchPredicate:
    if not (isinstance(d, Mapping)
            and isinstance(_field(d, "entries", "Weihrauch predicate"), list)
            and all(_is_entry(entry, k) for k, entry in enumerate(d["entries"]))):
        raise OracleModError(
            'a Weihrauch predicate must be {"entries": [{"instance": term, '
            '"families": [[term, ...], ...]}, ...]} with terms as strings'
        )
    entries = []
    for entry in d["entries"]:
        inst = parse_term(entry["instance"], auto_declare=True)
        fams = [
            [parse_term(src, auto_declare=True) for src in family]
            for family in entry["families"]
        ]
        entries.append((inst, fams))
    return ExtWeihrauchPredicate(entries, fuel=fuel)


def terms_from_json(d) -> list[Term]:
    srcs = _field(d, "terms", "answer set") if isinstance(d, Mapping) else d
    if not _is_strings(srcs):
        raise OracleModError("answer-set terms must be a list of strings")
    return [parse_term(src, auto_declare=True) for src in srcs]
