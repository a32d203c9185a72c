"""Unit tests for the Bin / BinLayout data structures."""

import pytest

from repro.core.bins import Bin, BinLayout
from repro.exceptions import BinningError


class TestBin:
    def test_append_fills_first_empty_slot(self):
        bin_ = Bin(index=0, slots=["a", None, "c"])
        position = bin_.append("b")
        assert position == 1
        assert bin_.values == ("a", "b", "c")

    def test_append_grows_when_full(self):
        bin_ = Bin(index=0, slots=["a"])
        assert bin_.append("b") == 1
        assert bin_.slots == ["a", "b"]

    def test_place_grows_slots(self):
        bin_ = Bin(index=0)
        bin_.place(3, "x")
        assert bin_.slots == [None, None, None, "x"]

    def test_place_conflict_rejected(self):
        bin_ = Bin(index=0, slots=["a"])
        with pytest.raises(BinningError):
            bin_.place(0, "b")
        bin_.place(0, "a")  # idempotent placement of the same value is fine

    def test_place_negative_rejected(self):
        with pytest.raises(BinningError):
            Bin(index=0).place(-1, "x")

    def test_position_of(self):
        bin_ = Bin(index=0, slots=["a", None, "b"])
        assert bin_.position_of("b") == 2
        with pytest.raises(BinningError):
            bin_.position_of("zzz")

    def test_contains_iter_len_skip_empty(self):
        bin_ = Bin(index=0, slots=["a", None, "b"])
        assert "a" in bin_ and None not in list(bin_)
        assert len(bin_) == 2
        assert bin_.size == 2


class TestBinLayout:
    def _layout(self):
        sensitive = [Bin(0, ["s0", "s2"]), Bin(1, ["s1", "s3"])]
        non_sensitive = [Bin(0, ["s0", "s1"]), Bin(1, ["ns0", "ns1"])]
        return BinLayout(sensitive, non_sensitive, attribute="A")

    def test_locations(self):
        layout = self._layout()
        assert layout.locate_sensitive("s3") == (1, 1)
        assert layout.locate_non_sensitive("ns1") == (1, 1)
        assert layout.locate_sensitive("missing") is None

    def test_contains(self):
        layout = self._layout()
        assert "s0" in layout and "ns0" in layout and "zzz" not in layout

    def test_counts_and_sizes(self):
        layout = self._layout()
        assert layout.num_sensitive_bins == 2
        assert layout.num_non_sensitive_bins == 2
        assert layout.max_sensitive_bin_size == 2
        assert layout.max_non_sensitive_bin_size == 2

    def test_bin_accessors_raise_for_bad_index(self):
        layout = self._layout()
        with pytest.raises(BinningError):
            layout.sensitive_bin(5)
        with pytest.raises(BinningError):
            layout.non_sensitive_bin(5)

    def test_duplicate_placement_rejected(self):
        with pytest.raises(BinningError):
            BinLayout([Bin(0, ["a"]), Bin(1, ["a"])], [Bin(0, [])])

    def test_validate_accepts_transposed_associations(self):
        # s0 at (bin 0, pos 0) appears in non-sensitive bin 0 at pos 0: OK.
        self._layout().validate()

    def test_validate_rejects_misplaced_association(self):
        sensitive = [Bin(0, ["v"]), Bin(1, ["w"])]
        # "v" sits at sensitive position 0 but in non-sensitive bin 1: invalid.
        non_sensitive = [Bin(0, ["x"]), Bin(1, ["v"])]
        layout = BinLayout(sensitive, non_sensitive)
        with pytest.raises(BinningError):
            layout.validate()

    def test_validate_rejects_position_beyond_bins(self):
        sensitive = [Bin(0, ["a", "b", "c"])]
        non_sensitive = [Bin(0, ["x"])]
        layout = BinLayout(sensitive, non_sensitive)
        with pytest.raises(BinningError):
            layout.validate()

    def test_describe_mentions_fake_tuples(self):
        layout = BinLayout(
            [Bin(0, ["a"])], [Bin(0, ["b"])], fake_tuples={0: 3}, attribute="A"
        )
        assert "+3 fake" in layout.describe()


class TestBinLayoutPlace:
    """``BinLayout.place``: where an inserted value may go."""

    def _layout(self):
        # "b" is sensitive-only at (0, 1); "c" sensitive-only at (1, 0);
        # "x" cleartext-only at (1, 0); "a" is associated
        sensitive = [Bin(0, ["a", "b"]), Bin(1, ["c"])]
        non_sensitive = [Bin(0, ["a"]), Bin(1, ["x"])]
        layout = BinLayout(sensitive, non_sensitive)
        layout.validate()
        return layout

    def test_other_side_value_takes_its_transpose_slot(self):
        layout = self._layout()
        assert layout.place("c", sensitive=False)  # sensitive (1, 0) -> NSB 0 slot 1
        assert layout.locate_non_sensitive("c") == (0, 1)
        layout.validate()

    def test_taken_transpose_slot_refuses(self):
        layout = self._layout()
        version = layout.version
        # "b" at sensitive (0, 1) needs NSB 1 slot 0, which holds "x"
        assert not layout.place("b", sensitive=False)
        # "x" at cleartext (1, 0) needs SB 0 slot 1, which holds "b"
        assert not layout.place("x", sensitive=True)
        assert layout.locate_non_sensitive("b") is None
        assert layout.locate_sensitive("x") is None
        assert layout.version == version

    def test_new_value_takes_least_filled_reachable_bin(self):
        layout = self._layout()
        version = layout.version
        assert layout.place("new", sensitive=True)
        assert layout.locate_sensitive("new") == (1, 1)
        assert layout.version > version
        layout.validate()
        # both sensitive bins now hold two values, as many as there are
        # non-sensitive bins: no reachable slot is left
        assert not layout.place("newer", sensitive=True)
        assert layout.locate_sensitive("newer") is None

    def test_present_value_is_left_alone(self):
        layout = self._layout()
        version = layout.version
        assert layout.place("a", sensitive=True)
        assert layout.locate_sensitive("a") == (0, 0)
        assert layout.version == version

    def test_none_is_refused(self):
        with pytest.raises(BinningError):
            self._layout().place(None, sensitive=False)
