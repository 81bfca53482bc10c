"""Unit tests for RMA windows: bounds, typing, and the RDMA race check."""

import pytest

from repro.errors import SimulationError
from repro.mpi.window import Window
from repro.types import INT64, RowVector, TupleType

KV = TupleType.of(key=INT64, value=INT64)


def rows(*pairs):
    return RowVector.from_rows(KV, list(pairs))


class TestBasics:
    def test_write_then_read(self):
        window = Window(0, KV, capacity=4)
        window.write(1, rows((7, 70), (8, 80)), source_rank=1)
        data = window.read(1, 3)
        assert list(data.iter_rows()) == [(7, 70), (8, 80)]

    def test_read_defaults_to_whole_window(self):
        window = Window(0, KV, capacity=2)
        assert len(window.read()) == 2

    def test_size_bytes(self):
        assert Window(0, KV, capacity=10).size_bytes() == 160

    def test_zero_capacity_legal(self):
        window = Window(0, KV, capacity=0)
        assert len(window.read(0, 0)) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Window(0, KV, capacity=-1)


class TestSafety:
    def test_out_of_bounds_write(self):
        window = Window(0, KV, capacity=2)
        with pytest.raises(SimulationError, match="outside window") as exc:
            window.write(1, rows((1, 1), (2, 2)), source_rank=0)
        assert exc.value.rule_id == "MOD050" and exc.value.kind == "bounds"
        assert (exc.value.owner_rank, exc.value.ranks) == (0, (0,))
        assert exc.value.rows == (1, 3)

    def test_out_of_bounds_read(self):
        window = Window(0, KV, capacity=2)
        with pytest.raises(SimulationError, match="outside window"):
            window.read(0, 3)

    def test_type_mismatch(self):
        other = TupleType.of(x=INT64)
        window = Window(0, KV, capacity=2)
        with pytest.raises(SimulationError, match="into window of") as exc:
            window.write(0, RowVector.from_rows(other, [(1,)]), source_rank=0)
        assert exc.value.rule_id == "MOD050" and exc.value.kind == "type"
        assert (exc.value.owner_rank, exc.value.ranks) == (0, (0,))

    def test_overlapping_writes_from_different_ranks_race(self):
        window = Window(0, KV, capacity=4)
        window.write(0, rows((1, 1), (2, 2)), source_rank=1, origin="first")
        with pytest.raises(SimulationError, match="RDMA race") as exc:
            window.write(1, rows((3, 3)), source_rank=2, origin="second")
        assert exc.value.rule_id == "MOD050" and exc.value.kind == "race"
        assert (exc.value.owner_rank, exc.value.ranks) == (0, (2, 1))
        assert exc.value.rows == (1, 2)
        assert exc.value.origins == ("second", "first")

    def test_same_rank_may_rewrite_its_region(self):
        window = Window(0, KV, capacity=4)
        window.write(0, rows((1, 1)), source_rank=1)
        window.write(0, rows((2, 2)), source_rank=1)  # no race: same source
        assert window.read(0, 1).row(0) == (2, 2)

    def test_epoch_boundary_clears_race_tracking(self):
        window = Window(0, KV, capacity=4)
        window.write(0, rows((1, 1), (2, 2)), source_rank=1)
        assert window.end_epoch() == 2
        window.write(1, rows((3, 3)), source_rank=2)  # new epoch: fine
        assert window.read(1, 2).row(0) == (3, 3)
