"""The symbolic partition-disjointness prover behind MOD012.

Exercises both directions in which it beats the structural check:

* **Prove-safe** — structurally *different* functions with identical
  semantics (``HashPartition`` salts selecting the same multiplier) no
  longer trigger MOD012.
* **Refute** — a subclass that keeps the base constructor signature (so it
  compares structurally *equal*) but overrides ``__call__`` is refuted by
  sampling, with a concrete witness key, and MOD012 fires.
"""

from repro.analysis import compare_partition_fns, symbolize
from repro.analysis.structure import same_partition_fn
from repro.core.functions import CallablePartition, HashPartition, RadixPartition
from repro.core.operators import (
    LocalHistogram,
    MaterializeRowVector,
    MpiExchange,
    MpiHistogram,
    ParameterLookup,
    RowScan,
)

from tests.conftest import KV
from tests.test_analysis_commsafety import cluster_plan, errors_of, rules_of


class EvilRadix(RadixPartition):
    """Same constructor signature as RadixPartition, different semantics.

    Structurally indistinguishable from its base (it inherits
    ``RadixPartition.signature``, which keys on the constructor
    arguments) yet routes by two higher bits.
    """

    def __call__(self, row):
        return (row[self._key_pos] >> (self.shift + 2)) & self.mask

    def map_batch(self, batch):
        keys = batch.column(self.key_field)
        return (keys >> (self.shift + 2)) & self.mask


class TestSymbolize:
    def test_radix_canonical_form(self):
        assert symbolize(RadixPartition("key", 8, shift=3)) == ("bits", "key", 3, 3)

    def test_hash_salt_resolves_to_multiplier(self):
        a = symbolize(HashPartition("key", 4, salt=0))
        b = symbolize(HashPartition("key", 4, salt=3))  # 3 % 3 == 0: same multiplier
        assert a == b
        assert a[0] == "hash"

    def test_fanout_one_is_const(self):
        assert symbolize(RadixPartition("key", 1)) == ("const", 0)
        assert symbolize(HashPartition("other", 1, salt=2)) == ("const", 0)
        assert symbolize(CallablePartition(lambda row: 0, 1)) == ("const", 0)

    def test_subclasses_are_not_trusted(self):
        assert symbolize(EvilRadix("key", 4)) is None

    def test_opaque_callables_have_no_form(self):
        assert symbolize(CallablePartition(lambda row: row[0] % 4, 4)) is None


class TestCompare:
    def test_identical_object(self):
        fn = RadixPartition("key", 4)
        assert compare_partition_fns(fn, fn).equivalent

    def test_equal_canonical_forms_prove_equivalence(self):
        # Distinct objects, equal semantics: the prove-safe direction.
        verdict = compare_partition_fns(
            HashPartition("key", 4, salt=0), HashPartition("key", 4, salt=3)
        )
        assert verdict.equivalent
        assert "multiplicative hash" in verdict.reason

    def test_fanout_one_cross_class_equivalence(self):
        verdict = compare_partition_fns(
            RadixPartition("key", 1), HashPartition("key", 1)
        )
        assert verdict.equivalent

    def test_shift_mismatch_refuted_with_witness(self):
        a, b = RadixPartition("key", 4), RadixPartition("key", 4, shift=2)
        verdict = compare_partition_fns(a, b)
        assert verdict.distinct
        key = verdict.witness
        assert key is not None
        a.bind(KV), b.bind(KV)
        assert a((key, 0)) != b((key, 0))  # the witness really disagrees

    def test_radix_vs_hash_refuted(self):
        verdict = compare_partition_fns(
            RadixPartition("key", 4), HashPartition("key", 4)
        )
        assert verdict.distinct
        assert verdict.witness is not None

    def test_different_key_fields_stay_unknown(self):
        verdict = compare_partition_fns(
            RadixPartition("key", 4), RadixPartition("value", 4)
        )
        assert verdict.unknown
        assert "different key fields" in verdict.reason

    def test_lying_subclass_refuted_by_sampling(self):
        # Structurally equal — the old check's false negative — but the
        # override is caught on a concrete probe key.
        base = RadixPartition("key", 4).bind(KV)
        evil = EvilRadix("key", 4).bind(KV)
        assert same_partition_fn(base, evil)
        verdict = compare_partition_fns(base, evil)
        assert verdict.distinct
        assert verdict.witness is not None
        assert base((verdict.witness, 0)) != evil((verdict.witness, 0))

    def test_sampling_agreement_never_proves(self):
        # A CallablePartition that replicates RadixPartition exactly:
        # sampling agrees everywhere but can only return UNKNOWN.
        base = RadixPartition("key", 4).bind(KV)
        clone = CallablePartition(lambda row: row[0] & 3, 4)
        verdict = compare_partition_fns(base, clone)
        assert verdict.unknown

    def test_unbound_functions_are_inconclusive(self):
        verdict = compare_partition_fns(
            EvilRadix("key", 4), RadixPartition("key", 4, shift=1)
        )
        assert verdict.unknown  # probes raise before bind(); never a finding


def _ladder(slot, hist_fn, exchange_fn):
    scan = RowScan(ParameterLookup(slot), field="t", shard_by_rank=True)
    local = LocalHistogram(scan, hist_fn)
    global_ = MpiHistogram(local, exchange_fn.n_partitions)
    return MaterializeRowVector(
        RowScan(MpiExchange(scan, local, global_, exchange_fn), field="data")
    )


class TestMod012Symbolic:
    def test_equivalent_salts_prove_the_ladder_safe(self):
        # Structurally different partition functions (salt 0 vs salt 3) —
        # the purely structural MOD012 flagged this ladder; the symbolic
        # prover shows both salts select the same multiplier.
        plan = cluster_plan(
            lambda slot: _ladder(
                slot, HashPartition("key", 4, salt=0), HashPartition("key", 4, salt=3)
            )
        )
        assert errors_of(plan) == []

    def test_lying_subclass_ladder_refuted(self):
        # Structurally *equal* functions — the purely structural MOD012
        # waved this ladder through and the race only surfaced at run time.
        plan = cluster_plan(
            lambda slot: _ladder(slot, RadixPartition("key", 4), EvilRadix("key", 4))
        )
        findings = errors_of(plan)
        assert rules_of(findings) == {"MOD012"}
        assert "semantically different" in findings[0].message

    def test_semantic_message_names_the_witness_reason(self):
        plan = cluster_plan(
            lambda slot: _ladder(
                slot, RadixPartition("key", 4, shift=2), RadixPartition("key", 4)
            )
        )
        findings = errors_of(plan)
        assert rules_of(findings) == {"MOD012"}
        assert "semantically different" in findings[0].message
        assert "lands in bucket" in findings[0].message
