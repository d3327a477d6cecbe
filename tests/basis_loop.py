"""The chain loop the basis builders once ran, kept as the reference they are tested against.

It builds each chain from its top a vector at a time: it lowers the mask by
e and keeps the bits valid in each degree from a table made once per basis.
The package builds each chain as one packed int instead, by doubling.
"""

from char2squares.basis import _bands, _valid_mask, build_w, project_to_sym


def _valid_masks(space, n):
    """_valid_mask(space, n, degree) for every degree from 0 to 2n, indexed by degree."""
    return [_valid_mask(space, n, degree) for degree in range(2 * n + 1)]


def _lower(mask, degree, sym2, valid):
    """e on a mask of this degree: the mask of its image in degree - 1.

    Bit i goes to bits i - 1 and i, of which only the bits of valid, the
    valid mask of degree - 1, are kept; in sym2, e(v_i v_i) = 0.
    """
    if sym2 and not degree & 1:
        mask &= ~(1 << (degree >> 1))
    return ((mask >> 1) ^ mask) & valid


def _chain_from_top(top, s, valid):
    """(s, top degree, masks top first) of the chain from top down to degree s + 1,
    the degree of z_s; valid is _valid_masks of top's square."""
    space, n, degree, mask = top
    sym2 = space == "sym2"
    masks = [mask]
    for below in range(degree - 1, s, -1):
        mask = _lower(mask, below + 1, sym2, valid[below])
        masks.append(mask)
    return s, degree, tuple(masks)


def tensor_chains(n):
    """(s, degree, masks) of every chain of the tensor-square basis, s = 1..n."""
    valid = _valid_masks("tensor", n)
    return [_chain_from_top(build_w(s, n), s, valid) for s, _, _ in _bands(n)]


def sym_chains(n):
    """(s, degree, masks) of every chain of the sym2 basis: pi(w_s) alone for an even s."""
    valid = _valid_masks("sym2", n)
    chains = []
    for s, _, _ in _bands(n):
        top = project_to_sym(build_w(s, n))
        chains.append((s, top.degree, (top.mask,)) if s % 2 == 0 else _chain_from_top(top, s, valid))
    return chains
