from .element import GroupElement, element_order, inverse, multiply, normal_form
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
    "FiniteGroupTable",
    "MatrixGroup",
    "GraphOfGroups",
    "GogEdge",
    "GraphOfGroupsGroup",
    "load_group",
    "table_from_spec",
]
