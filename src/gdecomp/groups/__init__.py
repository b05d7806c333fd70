from .element import (GroupElement, element_order, evaluate, free_reduce,
                      inverse, invert_word, multiply, normal_form, parse_word,
                      render_word)
from .gog import GogEdge, GraphOfGroups, GraphOfGroupsGroup
from .io import load_group, table_from_spec
from .matrix import MatrixGroup
from .table import FiniteGroupTable

__all__ = [
    "GroupElement",
    "multiply",
    "inverse",
    "element_order",
    "normal_form",
    "parse_word",
    "invert_word",
    "free_reduce",
    "render_word",
    "evaluate",
    "FiniteGroupTable",
    "MatrixGroup",
    "GraphOfGroups",
    "GogEdge",
    "GraphOfGroupsGroup",
    "load_group",
    "table_from_spec",
]
