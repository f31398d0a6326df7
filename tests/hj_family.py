"""The index-tagged family of a LieBasis as matrices: the reference that
`ad_operator` is checked against, since it reads the tags directly."""

from supermetric.algebra import Supernumber
from supermetric.isometry import _scale_by_supernumber


def hJ_matrices(basis):
    """Materialize z(J) * X for each tagged pair (J, position of X)."""
    cfg = basis.gamma.config
    flat = basis.elements()
    out = []
    for bits, pos in basis.hJ:
        zJ = Supernumber(cfg, {bits: cfg.coerce(1)})
        out.append(flat[pos].scale(1) if bits == 0 else
                   _scale_by_supernumber(flat[pos], zJ))
    return out
