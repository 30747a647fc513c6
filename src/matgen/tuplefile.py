"""JSON tuple files: generating sets of direct sums on disk.

Matrices are row-major nested arrays of canonical element strings, so
arbitrary-precision integers, rationals and extension-field coefficient
vectors travel through JSON uniformly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .domains import DomainError, domain_from_json, domain_to_json, json_int
from .generation import DirectSumShape
from .linalg import Mat


@dataclass(frozen=True)
class TupleFile:
    domain: object
    shape: DirectSumShape
    generators: tuple  # each generator a tuple of Mat

    @property
    def is_homogeneous(self) -> bool:
        return len(self.shape.blocks) == 1


def family_to_tuplefile(family) -> dict:
    """Serialize a GeneratorFamily (or TupleFile) to the JSON document."""
    domain = family.generators[0][0].domain
    sizes = family.shape.copy_sizes
    return {
        "coeff": domain_to_json(domain),
        "n": family.shape.blocks[0][0],
        "shape": [[n_i, m_i] for n_i, m_i in family.shape.blocks],
        "generators": [
            [[[domain.format_elem(x) for x in row] for row in a.rows]
             for a in elem]
            for elem in family.generators
        ],
    }


def _matrix(domain, rows, n: int) -> Mat:
    """An n x n Mat from nested lists of element strings."""
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(r, list) and len(r) == n for r in rows)):
        raise DomainError("matrix does not match its block size")
    if not all(isinstance(x, str) for r in rows for x in r):
        raise DomainError("matrix entries must be strings")
    return Mat(domain, n, tuple(tuple(domain.parse_elem(x) for x in r)
                                for r in rows))


def tuplefile_from_json(data: dict) -> TupleFile:
    try:
        domain = domain_from_json(data["coeff"])
        shape = DirectSumShape(tuple((json_int(n_i, "shape"), json_int(m_i, "shape"))
                                     for n_i, m_i in data["shape"]))
        if not shape.blocks:
            raise DomainError("the shape has no blocks")
        if "n" in data and json_int(data["n"], "n") != shape.blocks[0][0]:
            raise DomainError("n does not match the first block size")
        elems = data["generators"]
        if not isinstance(elems, list) or not elems:
            raise DomainError("no generators in file")
        # the shape may name far more copies than the document holds, so
        # its copy list is built only after the lengths agree
        copies = sum(m_i for _, m_i in shape.blocks)
        if any(not isinstance(elem, list) or len(elem) != copies
               for elem in elems):
            raise DomainError("generator does not match the shape")
        sizes = shape.copy_sizes
        generators = tuple(tuple(_matrix(domain, rows, n_i)
                                 for rows, n_i in zip(elem, sizes))
                           for elem in elems)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed tuple file: {exc}") from exc
    return TupleFile(domain=domain, shape=shape, generators=generators)


def dumps(obj) -> str:
    return json.dumps(family_to_tuplefile(obj), indent=2, sort_keys=True) + "\n"


def loads(text: str) -> TupleFile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON: {exc}") from exc
    return tuplefile_from_json(data)


def load_path(path) -> TupleFile:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
