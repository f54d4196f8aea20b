"""The half-weight fold straight from the solver's sets against the fold of
the sorted rows alone.

``realize_*`` folds each vertex's half-weights from the reduction flow's
row and column sets (``bipartite._from_reduction_flow``), while
``round_bipartite_*`` folds them from ``BipartiteRealization.rows`` by
transposing (``HalfWeights.from_rows``).  Both must give the same ``full``
and ``half_adj`` set at every vertex, and the solver's rows must pass
``validate()`` as well as realize's own check of the sets.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from optreal import DegreeSequence, mds_value, mm_value, realize_mds, realize_mm
from optreal.bipartite import _from_reduction_flow
from optreal.dominating import _mds_pattern
from optreal.matching import _mm_pattern
from optreal.rounding import HalfWeights

from conftest import graphic_sequences_upto, record_checked_realizations

# realize_*(d, checked=True) on every graphic sequence with n <= 7, both
# objectives, recorded before the fold read the solver's sets.
CHECKED_DIGEST = "ce8c8befe6cdb4b37c8ce59ae299cf8cf4ed79bbda258dcb8e6a7acc9fda7963"


def _load_workloads():
    """The benchmark's seeded input generator, ``perfbench/workloads.py``."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def both_folds(monkeypatch, d: DegreeSequence, mds: bool):
    """The weights ``realize_*`` folds from the solver's sets, and the
    weights folded from the rows of the realization it checked, which
    ``validate()`` accepts too."""
    checked = record_checked_realizations(monkeypatch)
    n = d.n
    if mds:
        gamma = mds_value(d)
        hw = _from_reduction_flow(n, gamma, "mds", d.values, *_mds_pattern(d, gamma))
    else:
        nu = mm_value(d)
        hw = _from_reduction_flow(n, 2 * nu, "mm", d.values, *_mm_pattern(d, nu))
    (bip,) = checked
    bip.validate()
    return hw, HalfWeights.from_rows(bip.n, bip.degrees, bip.rows)


def assert_same_fold(monkeypatch, d: DegreeSequence):
    for mds in (True, False):
        hw, reference = both_folds(monkeypatch, d, mds)
        assert (hw.n, hw.degrees) == (reference.n, reference.degrees)
        assert hw.full == reference.full, (d.values, mds)
        assert hw.half_adj == reference.half_adj, (d.values, mds)


def test_fold_from_solver_sets_exhaustive(monkeypatch):
    count = 0
    for d in graphic_sequences_upto(6):
        assert_same_fold(monkeypatch, d)
        count += 1
    assert count > 50


@pytest.mark.parametrize("workload", ["realize-dense", "realize-sparse"])
def test_fold_from_solver_sets_on_benchmark_pools(monkeypatch, workload):
    workloads = _load_workloads()
    for vals in workloads.make_pool(workload, 0):
        assert_same_fold(monkeypatch, DegreeSequence(vals))


def test_checked_realize_unchanged():
    h = hashlib.sha256()
    for d in graphic_sequences_upto(7):
        for realize in (realize_mds, realize_mm):
            g = realize(d, checked=True)
            assert g == realize(d)
            h.update(repr((g.n, sorted(g.edges), tuple(g.certificate))).encode())
    assert h.hexdigest() == CHECKED_DIGEST
