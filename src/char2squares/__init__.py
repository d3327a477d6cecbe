"""Jordan types of tensor, exterior and symmetric squares of Jordan blocks
over fields of characteristic two, with an exact GF(2) matrix oracle and
explicit Jordan-basis constructions."""

from .core import (
    Atom,
    ConesExpansion,
    EMPTY_TYPE,
    Ext2,
    JordanType,
    MixedKindError,
    ModuleExpr,
    Scaled,
    Sum,
    Sym2,
    Tensor,
    cones_expansion,
    expr_kind,
    format_jordan_type,
    parse_jordan_type,
    square_expr,
)
from .formulas import (
    decompose_expr,
    ext2_nilpotent,
    ext2_nilpotent_rec,
    ext2_unipotent,
    sym2_nilpotent,
    sym2_nilpotent_rec,
    sym2_unipotent,
    tensor_decompose,
)
from .oracle import (
    OracleCapExceeded,
    expr_images,
    oracle_expr_jordan_type,
    oracle_jordan_type,
)
from .basis import (
    JordanChain,
    SparseVec,
    build_sym_basis,
    build_tensor_basis,
    build_w,
    build_z,
    find_j0,
    verify_basis,
)
from .parser import ExprSyntaxError, parse_expr

__version__ = "0.1.0"
