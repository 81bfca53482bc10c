"""Golden ledgers: the simulated platform's figures, pinned.

A change to how plans run (the substrate, the kernels, the operator glue)
must leave every simulated figure where it was: per-rank clocks, the
phase breakdown, the puts and shuffled bytes, the morsels drained and the
substrate events each rank recorded.  A change that moves one of these is
a plan or cost-model change, and says so.

An MPI wave walks its plan once for all ranks, in lockstep, observed or
not.  The local-level, sanitizer, crash-recovery and ``Limit`` pins were
recorded while a second walk, each rank walking its own lane on its own
thread, still existed and agreed with this one: they carry that check
forward.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from collections import Counter

import numpy as np
import pytest

from repro.analysis.sanitizer import Sanitizer
from repro.core import lockstep
from repro.core.executor import execute
from repro.core.operators import (
    Limit, MaterializeRowVector, MpiExecutor, ParameterLookup, ParameterSlot, RowScan,
)
from repro.core.options import RunOptions
from repro.core.plans import (
    build_broadcast_join,
    build_distributed_groupby,
    build_distributed_join,
)
from repro.faults.policy import CrashFault, FaultPolicy, fault_profile
from repro.mpi import SimCluster
from repro.relational.optimizer import lower_to_modularis
from repro.tpch import ALL_QUERIES, load_catalog
from repro.types import INT64, RowVector, TupleType, row_vector_type
from repro.workloads import make_groupby_table, make_join_relations
from repro.workloads.targets import ALL_TARGETS, resolve


def clocks_and_phases(report) -> tuple:
    """Per-wave rank clocks and a digest of the phase breakdown."""
    phases = repr(sorted(report.phase_breakdown().items())).encode()
    return (
        [result.clocks for result in report.cluster_results],
        hashlib.sha256(phases).hexdigest()[:16],
    )


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def columns(report) -> list:
    """The result's one collection per row, as lists of column values."""
    return [[column.tolist() for column in vector.columns] for (vector,) in report.rows]


def ledger(report) -> tuple:
    """The pinned evidence of one execution: :func:`clocks_and_phases`,
    puts, shuffled bytes, morsels drained, and per rank the count of each
    kind of substrate event."""
    events = tuple(
        tuple(
            tuple(sorted(Counter(e.kind for e in result.trace.events(rank)).items()))
            for rank in range(len(result.clocks))
        )
        for result in report.cluster_results
    )
    return (
        *clocks_and_phases(report),
        report.metrics.total("comm_puts"),
        report.metrics.total("shuffle_bytes"),
        report.metrics.total("morsels_drained"),
        events,
    )


@functools.cache
def catalog():
    return load_catalog(0.005, seed=4)


def tpch_report(query: int, ranks: int, options: RunOptions):
    lowered = lower_to_modularis(ALL_QUERIES[query]().plan, catalog(), SimCluster(ranks))
    return lowered.run(catalog(), options)


def bulk_report(builder: str, compression: bool):
    cluster = SimCluster(4)
    options = RunOptions(metrics=True)
    if builder == "groupby":
        group = make_groupby_table(1 << 12, duplicates_per_key=4)
        plan = build_distributed_groupby(
            cluster, group.table.element_type, key_bits=group.key_bits,
            compression=compression,
        )
        return plan.run(group.table, options)
    join = make_join_relations(1 << 12)
    types = join.left.element_type, join.right.element_type
    if builder == "join":
        plan = build_distributed_join(
            cluster, *types, key_bits=join.key_bits, compression=compression
        )
    else:
        plan = build_broadcast_join(cluster, *types)
    return plan.run(join.left, join.right, options)


#: Key: ``q<query>-r<ranks>``, ``<builder>-<compression>`` or the fault line.
PINNED = {'q4-r1': ([[0.0008612927600797519]],
           '125d328a28cebd66',
           2,
           163192,
           28,
           (((('collective', 8), ('put', 2), ('win_create', 2)),),)),
 'q4-r4': ([[0.0006889587819612099,
             0.000688697669415538,
             0.0006880978079580038,
             0.0006887486875003117]],
           'd690c22167cc733a',
           32,
           163192,
           106,
           (((('collective', 8), ('put', 8), ('win_create', 2)),
             (('collective', 8), ('put', 8), ('win_create', 2)),
             (('collective', 8), ('put', 8), ('win_create', 2)),
             (('collective', 8), ('put', 8), ('win_create', 2))),)),
 'q4-r8': ([[0.0007064795310465648,
             0.0007063290383919156,
             0.0007060891566802822,
             0.0007065858885306889,
             0.0007063795665884799,
             0.0007058540109680757,
             0.000705800903159707,
             0.0007062247619704223]],
           '5d700e97984628e9',
           127,
           163192,
           210,
           (((('collective', 8), ('put', 16), ('win_create', 2)),
             (('collective', 8), ('put', 16), ('win_create', 2)),
             (('collective', 8), ('put', 15), ('win_create', 2)),
             (('collective', 8), ('put', 16), ('win_create', 2)),
             (('collective', 8), ('put', 16), ('win_create', 2)),
             (('collective', 8), ('put', 16), ('win_create', 2)),
             (('collective', 8), ('put', 16), ('win_create', 2)),
             (('collective', 8), ('put', 16), ('win_create', 2))),)),
 'q12-r1': ([[0.0008721043512425069]],
            'c8f7f088ef4ca7a8',
            2,
            307720,
            27,
            (((('collective', 8), ('put', 2), ('win_create', 2)),),)),
 'q12-r4': ([[0.0006960490968156238,
              0.000696091954422131,
              0.0006959004369604951,
              0.000695578434208813]],
            'f4801964b4b1ab5d',
            32,
            307720,
            102,
            (((('collective', 8), ('put', 8), ('win_create', 2)),
              (('collective', 8), ('put', 8), ('win_create', 2)),
              (('collective', 8), ('put', 8), ('win_create', 2)),
              (('collective', 8), ('put', 8), ('win_create', 2))),)),
 'q12-r8': ([[0.0007103289215444051,
              0.0007103323045282618,
              0.0007102877023452729,
              0.00071004042697866,
              0.0007101955176555483,
              0.0007100234950455326,
              0.0007100317517274457,
              0.0007100935924339225]],
            '8c5e80f742fc35c0',
            126,
            307720,
            202,
            (((('collective', 8), ('put', 14), ('win_create', 2)),
              (('collective', 8), ('put', 16), ('win_create', 2)),
              (('collective', 8), ('put', 16), ('win_create', 2)),
              (('collective', 8), ('put', 16), ('win_create', 2)),
              (('collective', 8), ('put', 16), ('win_create', 2)),
              (('collective', 8), ('put', 16), ('win_create', 2)),
              (('collective', 8), ('put', 16), ('win_create', 2)),
              (('collective', 8), ('put', 16), ('win_create', 2))),)),
 'q14-r1': ([[0.0006759486053859637]],
            '5c6202166da0d6ab',
            2,
            49744,
            28,
            (((('collective', 8), ('put', 2), ('win_create', 2)),),)),
 'q14-r4': ([[0.000638185530570062,
              0.0006379729885961574,
              0.0006378654127165131,
              0.0006381244946416319]],
            '2218637131d467fb',
            32,
            49744,
            103,
            (((('collective', 8), ('put', 8), ('win_create', 2)),
              (('collective', 8), ('put', 8), ('win_create', 2)),
              (('collective', 8), ('put', 8), ('win_create', 2)),
              (('collective', 8), ('put', 8), ('win_create', 2))),)),
 'q14-r8': ([[0.0006805377965313439,
              0.000680388129302444,
              0.0006803778093460834,
              0.0006805179157386842,
              0.0006805500071535552,
              0.000680436497732531,
              0.0006803779907798835,
              0.0006805295208022834]],
            'a78c93c7acad94fc',
            128,
            49744,
            203,
            (((('collective', 8), ('put', 16), ('win_create', 2)),
              (('collective', 8), ('put', 16), ('win_create', 2)),
              (('collective', 8), ('put', 16), ('win_create', 2)),
              (('collective', 8), ('put', 16), ('win_create', 2)),
              (('collective', 8), ('put', 16), ('win_create', 2)),
              (('collective', 8), ('put', 16), ('win_create', 2)),
              (('collective', 8), ('put', 16), ('win_create', 2)),
              (('collective', 8), ('put', 16), ('win_create', 2))),)),
 'q19-r1': ([[0.0008226608600363553]],
            'b428ffcf5b4bb295',
            2,
            20896,
            29,
            (((('collective', 8), ('put', 2), ('win_create', 2)),),)),
 'q19-r4': ([[0.0006716332064915636,
              0.0006716470360160373,
              0.0006715490461898861,
              0.0006716778596316507]],
            'a4a0930488777d30',
            18,
            20896,
            110,
            (((('collective', 8), ('put', 4), ('win_create', 2)),
              (('collective', 8), ('put', 5), ('win_create', 2)),
              (('collective', 8), ('put', 5), ('win_create', 2)),
              (('collective', 8), ('put', 4), ('win_create', 2))),)),
 'q19-r8': ([[0.0006908441721777916,
              0.0006908439051334902,
              0.0006907366389543011,
              0.0006908716129801287,
              0.0006907597150412982,
              0.0006907569749383937,
              0.0006907781269482235,
              0.0006907833962986028]],
            '9f61d6a4bf8e18fb',
            66,
            20896,
            218,
            (((('collective', 8), ('put', 8), ('win_create', 2)),
              (('collective', 8), ('put', 8), ('win_create', 2)),
              (('collective', 8), ('put', 8), ('win_create', 2)),
              (('collective', 8), ('put', 9), ('win_create', 2)),
              (('collective', 8), ('put', 9), ('win_create', 2)),
              (('collective', 8), ('put', 8), ('win_create', 2)),
              (('collective', 8), ('put', 8), ('win_create', 2)),
              (('collective', 8), ('put', 8), ('win_create', 2))),)),
 'join-True': ([[0.0006371720100577466,
                 0.0006373457851208519,
                 0.0006370170313158054,
                 0.0006367592233598354]],
               '140fad0d470ffd01',
               32,
               65536,
               101,
               (((('collective', 8), ('put', 8), ('win_create', 2)),
                 (('collective', 8), ('put', 8), ('win_create', 2)),
                 (('collective', 8), ('put', 8), ('win_create', 2)),
                 (('collective', 8), ('put', 8), ('win_create', 2))),)),
 'join-False': ([[0.0006384084640763176,
                  0.0006385589805316922,
                  0.0006382742281826364,
                  0.0006380509260643312]],
                '452bcce2d93ee9a4',
                32,
                131072,
                85,
                (((('collective', 8), ('put', 8), ('win_create', 2)),
                  (('collective', 8), ('put', 8), ('win_create', 2)),
                  (('collective', 8), ('put', 8), ('win_create', 2)),
                  (('collective', 8), ('put', 8), ('win_create', 2))),)),
 'groupby-True': ([[0.00031502217823522484,
                    0.0003150713565939034,
                    0.0003149783192371469,
                    0.0003149053595621376]],
                  'd44a4e94234f385f',
                  16,
                  32768,
                  62,
                  (((('collective', 4), ('put', 4), ('win_create', 1)),
                    (('collective', 4), ('put', 4), ('win_create', 1)),
                    (('collective', 4), ('put', 4), ('win_create', 1)),
                    (('collective', 4), ('put', 4), ('win_create', 1))),)),
 'groupby-False': ([[0.0003161739874703373,
                     0.00031621690466227594,
                     0.00031613571240200793,
                     0.0003160720416236352]],
                   'e70ab011ac8b8f59',
                   16,
                   65536,
                   54,
                   (((('collective', 4), ('put', 4), ('win_create', 1)),
                     (('collective', 4), ('put', 4), ('win_create', 1)),
                     (('collective', 4), ('put', 4), ('win_create', 1)),
                     (('collective', 4), ('put', 4), ('win_create', 1))),)),
 'broadcast-None': ([[0.0003462232348153776,
                      0.0003464244987802526,
                      0.0003460437404994669,
                      0.00034574515075668297]],
                    'eda3c0e0a8dacf9b',
                    16,
                    0,
                    49,
                    (((('collective', 4), ('put', 4), ('win_create', 1)),
                      (('collective', 4), ('put', 4), ('win_create', 1)),
                      (('collective', 4), ('put', 4), ('win_create', 1)),
                      (('collective', 4), ('put', 4), ('win_create', 1))),)),
 'q12-r4-transient': ([[0.0009059729011524533,
                        0.0009060157587589605,
                        0.0009058242412973246,
                        0.0009055022385456425]],
                      '73c54b317fe79f85',
                      32,
                      307720,
                      102,
                      (((('collective', 8),
                         ('fault', 4),
                         ('put', 8),
                         ('retry', 4),
                         ('win_create', 2)),
                        (('collective', 8), ('put', 8), ('win_create', 2)),
                        (('collective', 8),
                         ('fault', 1),
                         ('put', 8),
                         ('retry', 1),
                         ('win_create', 2)),
                        (('collective', 8),
                         ('fault', 1),
                         ('put', 8),
                         ('retry', 1),
                         ('win_create', 2))),)),
 'local-hash': (([[0.0006509641002916892,
                   0.000651283868650403,
                   0.0006506789195697766,
                   0.0006502045199322667]],
                 '7cdbdfab6b8ccd5f',
                 32,
                 65536,
                 749,
                 (((('collective', 8), ('put', 8), ('win_create', 2)),
                   (('collective', 8), ('put', 8), ('win_create', 2)),
                   (('collective', 8), ('put', 8), ('win_create', 2)),
                   (('collective', 8), ('put', 8), ('win_create', 2))),)),
                'dc88734875dbde45'),
 'local-sortmerge': (([[0.0006525579846678737,
                        0.0006528946247573379,
                        0.0006522577571402829,
                        0.0006517583270620373]],
                      'de79a0566db645f9',
                      32,
                      65536,
                      621,
                      (((('collective', 8), ('put', 8), ('win_create', 2)),
                        (('collective', 8), ('put', 8), ('win_create', 2)),
                        (('collective', 8), ('put', 8), ('win_create', 2)),
                        (('collective', 8),
                         ('put', 8),
                         ('win_create', 2))),)),
                     '5e26ea6b13758d15'),
 'local-groupby': (([[0.0003213144790985742,
                      0.00032143026329613803,
                      0.00032121121865973687,
                      0.0003210394443742058]],
                    '30bbd1c25d620cef',
                    16,
                    32768,
                    454,
                    (((('collective', 4), ('put', 4), ('win_create', 1)),
                      (('collective', 4), ('put', 4), ('win_create', 1)),
                      (('collective', 4), ('put', 4), ('win_create', 1)),
                      (('collective', 4), ('put', 4), ('win_create', 1))),)),
                   '7d4190a4286a1c0b'),
 'local-nic': (([[0.00031698290011031484,
                  0.00031720005749391464,
                  0.00031685500454595096,
                  0.0003168473971868554]],
                '94e163c2e517dc26',
                16,
                22376,
                454,
                (((('collective', 4), ('put', 4), ('win_create', 1)),
                  (('collective', 4), ('put', 4), ('win_create', 1)),
                  (('collective', 4), ('put', 4), ('win_create', 1)),
                  (('collective', 4), ('put', 4), ('win_create', 1))),)),
               '7d4190a4286a1c0b'),
 'sanitized-broadcast_join': (16, 16, 4, 4, '61448f3232b132a4'),
 'sanitized-groupby': (16, 16, 4, 4, '23ad5361f29d9208'),
 'sanitized-join': (31, 32, 8, 8, 'cea996de16f91e45'),
 'sanitized-join_sequence': (47, 48, 12, 12, '4b32e17ed20551b8'),
 'sanitized-q12': (21, 32, 8, 8, '7a87afb46fdc79e3'),
 'sanitized-q14': (28, 32, 8, 8, 'a548b0d5781952fb'),
 'sanitized-q19': (16, 32, 8, 8, '870732792b46dd13'),
 'sanitized-q4': (24, 32, 8, 8, 'fdb9b12ce9b172fa'),
 'aborted-crash+drops-degrade': (([[0.0007967937665669476,
                                    0.0007874534786771318,
                                    0.0007872619612154959]],
                                  'ddabb290797e808e',
                                  24,
                                  307720,
                                  85,
                                  (((('collective', 8),
                                     ('put', 8),
                                     ('win_create', 2)),
                                    (('collective', 8),
                                     ('fault', 1),
                                     ('put', 8),
                                     ('retry', 1),
                                     ('win_create', 2)),
                                    (('collective', 8),
                                     ('put', 8),
                                     ('win_create', 2))),)),
                                 0.001117828093007737,
                                 {'fault:crash': 1,
                                  'fault:put_drop': 3,
                                  'recovery:degrade_cluster': 1,
                                  'retry:put->0': 1,
                                  'retry:put->1': 1,
                                  'retry:put->3': 1},
                                 '92c93a86c27804d1'),
 'aborted-crash+drops-retry': (([[0.0008025897218156238,
                                  0.000802632579422131,
                                  0.0008024410619604951,
                                  0.000802119059208813]],
                                '53523b6d667008d2',
                                32,
                                307720,
                                102,
                                (((('collective', 8),
                                   ('put', 8),
                                   ('win_create', 2)),
                                  (('collective', 8),
                                   ('fault', 1),
                                   ('put', 8),
                                   ('retry', 1),
                                   ('win_create', 2)),
                                  (('collective', 8),
                                   ('put', 8),
                                   ('win_create', 2)),
                                  (('collective', 8),
                                   ('fault', 1),
                                   ('put', 8),
                                   ('retry', 1),
                                   ('win_create', 2))),)),
                               0.0011236761058629205,
                               {'fault:crash': 1,
                                'fault:put_drop': 4,
                                'recovery:stage_retry': 1,
                                'retry:put->1': 2,
                                'retry:put->3': 2},
                               'c50d9799434eaf99'),
 'aborted-crash-degrade': (([[0.0007404156415669475,
                              0.0007310753536771317,
                              0.0007308838362154958]],
                            '69bdf99daf559d4e',
                            24,
                            307720,
                            85,
                            (((('collective', 8),
                               ('put', 8),
                               ('win_create', 2)),
                              (('collective', 8),
                               ('put', 8),
                               ('win_create', 2)),
                              (('collective', 8),
                               ('put', 8),
                               ('win_create', 2))),)),
                           0.0010614499680077368,
                           {'fault:crash': 1, 'recovery:degrade_cluster': 1},
                           'd8ecbb86f2d6e582'),
 'aborted-crash-retry': (([[0.0006960490968156238,
                            0.000696091954422131,
                            0.0006959004369604951,
                            0.000695578434208813]],
                          'f4801964b4b1ab5d',
                          32,
                          307720,
                          102,
                          (((('collective', 8),
                             ('put', 8),
                             ('win_create', 2)),
                            (('collective', 8),
                             ('put', 8),
                             ('win_create', 2)),
                            (('collective', 8),
                             ('put', 8),
                             ('win_create', 2)),
                            (('collective', 8),
                             ('put', 8),
                             ('win_create', 2))),)),
                         0.0010171354808629204,
                         {'fault:crash': 1, 'recovery:stage_retry': 1},
                         '0039a5b27dec3ed2'),
 'limit': (([[2.89745538721802e-07,
              2.9281257971195165e-07,
              2.8701024318720763e-07,
              2.8246006461487506e-07]],
            'b3ed652da0bf3fda',
            0,
            0,
            37,
            (((), (), (), ()),)),
           '9336172cbce81fba')}


@pytest.mark.parametrize("ranks", [1, 4, 8])
@pytest.mark.parametrize("query", sorted(ALL_QUERIES))
def test_tpch(query, ranks):
    report = tpch_report(query, ranks, RunOptions(metrics=True))
    assert ledger(report) == PINNED[f"q{query}-r{ranks}"]


@pytest.mark.parametrize(
    "builder, compression",
    [("join", True), ("join", False), ("groupby", True), ("groupby", False),
     ("broadcast", None)],
)
def test_bulk(builder, compression):
    assert ledger(bulk_report(builder, compression)) == PINNED[f"{builder}-{compression}"]


@pytest.fixture
def lockstep_jobs(monkeypatch):
    """The jobs that run in lockstep."""
    jobs = []
    group = lockstep.CommGroup
    monkeypatch.setattr(lockstep, "CommGroup", lambda comms: jobs.append(1) or group(comms))
    return jobs


@pytest.mark.parametrize("ranks", [1, 4, 8])
@pytest.mark.parametrize("query", sorted(ALL_QUERIES))
def test_tpch_in_lockstep(query, ranks, lockstep_jobs):
    report = tpch_report(query, ranks, RunOptions())
    assert lockstep_jobs == [1] * len(report.cluster_results) == [1]
    assert clocks_and_phases(report) == PINNED[f"q{query}-r{ranks}"][:2]


@pytest.mark.parametrize("name", ALL_TARGETS)
def test_no_wave_starts_a_thread(name, monkeypatch):
    """Every wave walks in lockstep on the caller's thread: observed,
    sanitized, or losing a rank to a crash."""
    def refuse(thread):
        raise AssertionError(f"thread {thread.name!r} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    target = resolve(name, 4, log2_tuples=6, sf=0.0002)
    observed = target.run(RunOptions(profile=True, metrics=True, sanitize=True))
    crashed = target.run(RunOptions(faults=fault_profile("crash", 1, 4)))
    assert observed.sanitizer.clean and crashed.recovery_events


@pytest.mark.parametrize("ranks", [1, 4, 8])
@pytest.mark.parametrize("query", sorted(ALL_QUERIES))
def test_tpch_profiled_in_lockstep(query, ranks, lockstep_jobs):
    # A timed profile observes the walk that unobserved runs take.
    report = tpch_report(query, ranks, RunOptions(metrics=True, profile=True))
    assert lockstep_jobs == [1]
    assert ledger(report) == PINNED[f"q{query}-r{ranks}"]


@pytest.mark.parametrize("builder", ["hash", "sortmerge", "groupby", "nic"])
def test_local_level_pinned(builder, lockstep_jobs):
    # key_bits=27 plans the second, in-memory partitioning level.
    cluster = SimCluster(4)
    if builder in ("hash", "sortmerge"):
        join = make_join_relations(1 << 12)
        types = join.left.element_type, join.right.element_type
        plan = build_distributed_join(cluster, *types, key_bits=27, algorithm=builder)
        inputs = (join.left, join.right)
    else:
        group = make_groupby_table(1 << 12, duplicates_per_key=4)
        plan = build_distributed_groupby(
            cluster, group.table.element_type, key_bits=27,
            offload="nic" if builder == "nic" else None,
        )
        inputs = (group.table,)
    report = plan.run(*inputs, RunOptions(metrics=True))
    assert lockstep_jobs == [1]
    assert (ledger(report), digest(columns(report))) == PINNED[f"local-{builder}"]


def test_transient_faults():
    policy = FaultPolicy(seed=3, put_drop_rate=0.1, collective_drop_rate=0.1)
    options = RunOptions(metrics=True, faults=policy)
    report = tpch_report(12, 4, options)
    assert ledger(report) == PINNED["q12-r4-transient"]


@pytest.mark.parametrize("name", ALL_TARGETS)
def test_sanitized_pinned(name, monkeypatch):
    """The sanitizer watches the walk every run takes: its checked puts,
    collectives, windows and epochs, and a digest of each window's write
    set (its puts' regions and sources; the payload fingerprints hold only
    within one process)."""
    seen = []
    report = Sanitizer.report

    def recorded(self, replay=None):
        log = sorted((key, sorted(put[:4] for put in puts)) for key, puts in self.write_log.items())
        seen.append((self.puts_checked, self.collectives_checked,
                     self.windows_tracked, self.epochs_closed, digest(log)))
        return report(self, replay)

    monkeypatch.setattr(Sanitizer, "report", recorded)
    target = resolve(name, 4, log2_tuples=6, sf=0.0002)
    assert target.run(RunOptions(sanitize=True)).sanitizer.clean
    assert seen == [PINNED[f"sanitized-{name}"]]


@pytest.mark.parametrize("permanent", [False, True], ids=["retry", "degrade"])
@pytest.mark.parametrize("drop_rate", [0.0, 0.2], ids=["crash", "crash+drops"])
def test_aborted_wave_pinned(permanent, drop_rate, request):
    """A rank that crashes in a lockstep wave stops there, while its peers
    run on to the next collective: the aborted attempt leaves its faults,
    retries and recovery behind."""
    policy = FaultPolicy(
        crash=CrashFault(2, after_comm_ops=6, permanent=permanent),
        put_drop_rate=drop_rate,
    )

    report = tpch_report(12, 4, RunOptions(metrics=True, faults=policy))
    evidence = [(e.rank, e.kind, e.label, e.start, e.end, e.detail) for e in report.recovery_events]
    outcome = ledger(report), report.simulated_time, report.fault_summary(), digest(evidence)
    assert outcome == PINNED[f"aborted-{request.node.callspec.id}"]


def test_limit_pinned(lockstep_jobs):
    """Each lane of a lockstep ``Limit`` stops pulling at its own point: its
    upstream charges no rank for rows it drops."""
    kv = TupleType.of(key=INT64, value=INT64)
    table = RowVector(kv, [np.arange(1000), np.arange(1000) % 7])
    slot = ParameterSlot(TupleType.of(t=row_vector_type(kv)))

    executor = MpiExecutor(
        ParameterLookup(slot),
        lambda s: MaterializeRowVector(
            Limit(RowScan(ParameterLookup(s), field="t", shard_by_rank=True), 70)
        ),
        SimCluster(4),
    )
    report = execute(
        MaterializeRowVector(RowScan(executor)), params={slot: (table,)},
        options=RunOptions(metrics=True, morsel_rows=32),
    )
    assert lockstep_jobs == [1]
    assert (ledger(report), digest(columns(report))) == PINNED["limit"]
