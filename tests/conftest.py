import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import settings

import strat_ic
from strat_ic import spaces

# keep the suite reproducible run to run
settings.register_profile("repro", derandomize=True, max_examples=40, deadline=None)
settings.load_profile("repro")

SRC = str(Path(strat_ic.__file__).resolve().parents[1])

# a 6-vertex RP^2: not orientable, H^2 = Z/2
RP2_TRIANGLES = [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
                 (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)]


def projective_plane():
    return spaces.single_stratum(spaces.SimplicialComplex(6, RP2_TRIANGLES))


def two_term_sheaf(space, free_rank, torsion):
    """The stalk Z^t --diag(torsion)--> Z^(r + t) in stalk degrees -1 and 0
    on every cell of `space` (t = len(torsion), r = free_rank; the map hits
    the last t coordinates), with identity restrictions.  Its H^0 is Z^r
    plus Z/n for each n in `torsion`.  A caller-built sheaf: certified by
    `SheafComplex.validate`, not by construction."""
    from strat_ic.linalg import CochainComplex, ExactMatrix
    from strat_ic.sheaves import SheafComplex
    r, t = free_rank, len(torsion)
    d = ExactMatrix(r + t, t, {(r + i, i): n for i, n in enumerate(torsion)})
    stalk = CochainComplex({-1: t, 0: r + t}, {-1: d})
    ident = {q: ExactMatrix.identity(stalk.dim(q)) for q in (-1, 0)}
    cells = space.complex.cells
    return SheafComplex(space, {c: stalk for c in cells},
                        {(sig, tau): ident for tau in cells
                         for sig, _s in spaces.facets(tau)})


def run_python(*args, optimize=True, timeout=120, text=True):
    """Run a fresh interpreter on `args` with this package's source on
    PYTHONPATH, under `-O` unless `optimize` is false.  `-O` strips asserts,
    so a check that must hold there has to be a typed raise.  With `text`
    false, stdout and stderr are the bytes written, newlines untranslated."""
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable] + flags + list(args),
                          capture_output=True, text=text, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=SRC))


def assert_normalized(m):
    """The ExactMatrix entry invariant: an int, or a Fraction with a true
    denominator; never a float, never a zero, never a Fraction with
    denominator 1."""
    for v in m.entries.values():
        assert v and (type(v) is int
                      or (type(v) is Fraction and v.denominator > 1)), repr(v)


def ladder_result(space, perversity, sheaf, full=False, beyond=0):
    """The ICResult of `ic.deligne_construction`'s ladder started from
    `sheaf` instead of the rank-one constant sheaf.  Each pushforward is
    assembled through its cutoff, as in the package, or through `beyond`
    degrees more, or in every stalk degree when `full`."""
    from strat_ic import ic, sheaves
    F = sheaf
    cutoffs = {}
    for p in sorted(space.singular_levels(), reverse=True):
        cut = cutoffs[p] = perversity(space.top - p)
        F = sheaves.truncate(
            sheaves.derived_pushforward(F, space.filtration_stage(p),
                                        through=None if full
                                        else cut + beyond),
            cut)
    return ic.ICResult(space, F, cutoffs, "ladder")


def ref_deligne_construction(space, perversity):
    """`ic.deligne_construction` through full pushforwards: every stalk
    degree is assembled before each truncation, as it was before
    pushforwards stopped at the degree their truncation reads."""
    from strat_ic import sheaves
    return ladder_result(space, perversity, sheaves.constant_sheaf(space),
                         full=True)
