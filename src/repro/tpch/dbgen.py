"""Seeded TPC-H data generator (``dbgen``) at configurable scale.

Generates the ``orders``, ``lineitem``, and ``part`` tables with the value
distributions of the TPC-H specification for every column that queries 4,
12, 14, and 19 read: uniform order dates over the 7-year window, 1–7
lineitems per order with the spec's date offsets, the spec's retail-price
formula, and the categorical pools of :mod:`repro.tpch.schema`.  The paper
runs scale factor 500; benchmarks here default to laptop scale (SF 0.01–
0.1) — see DESIGN.md for the substitution argument.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.errors import ModularisError
from repro.relational.expressions import days_from_date
from repro.storage.catalog import Catalog
from repro.storage.table import Table, dictionary_encode
from repro.tpch.schema import (
    CONTAINER_SYLLABLES,
    MARKET_SEGMENTS,
    ORDER_PRIORITIES,
    ROWS_PER_SF,
    SHIP_INSTRUCTIONS,
    SHIP_MODES,
    TYPE_SYLLABLES,
)

__all__ = ["TpchData", "generate", "load_catalog"]

_START_DATE = days_from_date("1992-01-01")
_END_DATE = days_from_date("1998-08-02")


@dataclass
class TpchData:
    """The generated tables plus their scale factor."""

    scale_factor: float
    orders: Table
    lineitem: Table
    part: Table
    customer: Table

    def register_all(self, catalog: Catalog, replace: bool = False) -> Catalog:
        for table in (self.orders, self.lineitem, self.part, self.customer):
            catalog.register(table, replace=replace)
        return catalog


def _pick(rng: np.random.Generator, pool: tuple[str, ...], n: int) -> tuple:
    return pool, rng.integers(0, len(pool), size=n)


def _combine(rng: np.random.Generator, pools: tuple, fmt: str, n: int) -> tuple:
    """One value drawn per pool, in order, joined by ``fmt``."""
    index = np.ravel_multi_index(
        [rng.integers(0, len(pool), size=n) for pool in pools], [len(p) for p in pools]
    )
    return [fmt.format(*combo) for combo in itertools.product(*pools)], index


def _table(name: str, **columns) -> Table:
    """``Table.from_arrays``, where a ``(pool, index)`` pair is the string
    column ``pool[index]`` handed over with its dictionary: no row is sorted."""
    dictionaries = {}
    for column, value in columns.items():
        if isinstance(value, tuple):
            pool = np.asarray(value[0], dtype="U32")
            dictionaries[column] = dictionary_encode(pool, value[1])
            columns[column] = pool[value[1]]
    return Table.from_arrays(name, dictionaries, **columns)


def _retail_price(partkeys: np.ndarray) -> np.ndarray:
    """The spec's p_retailprice formula (clause 4.2.3)."""
    return (
        90000.0 + ((partkeys // 10) % 20001) + 100.0 * (partkeys % 1000)
    ) / 100.0


def generate(scale_factor: float = 0.01, seed: int = 2021) -> TpchData:
    """Generate the three tables at ``scale_factor`` (deterministic)."""
    if scale_factor <= 0:
        raise ModularisError(f"scale factor must be positive, got {scale_factor}")
    rng = np.random.default_rng(seed)
    n_orders = max(int(ROWS_PER_SF["orders"] * scale_factor), 16)
    n_parts = max(int(ROWS_PER_SF["part"] * scale_factor), 16)

    # -- part ---------------------------------------------------------------
    digits = tuple("12345")
    brands = _combine(rng, (digits, digits), "Brand#{}{}", n_parts)
    types = _combine(rng, TYPE_SYLLABLES, "{} {} {}", n_parts)
    containers = _combine(rng, CONTAINER_SYLLABLES, "{} {}", n_parts)
    part = _table(
        "part",
        p_partkey=np.arange(n_parts, dtype=np.int64),
        p_brand=brands,
        p_type=types,
        p_size=rng.integers(1, 51, size=n_parts).astype(np.int64),
        p_container=containers,
    )

    # -- customer ------------------------------------------------------------
    n_customers = max(int(ROWS_PER_SF["customer"] * scale_factor), 8)
    customer = _table(
        "customer",
        c_custkey=np.arange(n_customers, dtype=np.int64),
        c_mktsegment=_pick(rng, MARKET_SEGMENTS, n_customers),
    )

    # -- orders --------------------------------------------------------------
    orderkeys = np.arange(n_orders, dtype=np.int64)
    orderdates = rng.integers(
        _START_DATE, _END_DATE - 151, size=n_orders
    ).astype(np.int64)
    orders = _table(
        "orders",
        o_orderkey=orderkeys,
        o_custkey=rng.integers(0, n_customers, size=n_orders).astype(np.int64),
        o_orderdate=orderdates,
        o_orderpriority=_pick(rng, ORDER_PRIORITIES, n_orders),
        o_shippriority=np.zeros(n_orders, dtype=np.int64),
    )

    # -- lineitem ------------------------------------------------------------
    lines_per_order = rng.integers(1, 8, size=n_orders)
    l_orderkey = np.repeat(orderkeys, lines_per_order)
    n_lines = len(l_orderkey)
    l_partkey = rng.integers(0, n_parts, size=n_lines).astype(np.int64)
    l_quantity = rng.integers(1, 51, size=n_lines).astype(np.int64)
    l_extendedprice = l_quantity * _retail_price(l_partkey)
    l_discount = rng.integers(0, 11, size=n_lines) / 100.0
    l_tax = rng.integers(0, 9, size=n_lines) / 100.0
    order_dates_per_line = np.repeat(orderdates, lines_per_order)
    l_shipdate = order_dates_per_line + rng.integers(1, 122, size=n_lines)
    l_commitdate = order_dates_per_line + rng.integers(30, 91, size=n_lines)
    l_receiptdate = l_shipdate + rng.integers(1, 31, size=n_lines)
    # Spec clause 4.2.3: lines received after the "current date" minus 17
    # days are still open ("O"); closed lines return "R" or "A" evenly.
    current_date = days_from_date("1995-06-17")
    open_line = l_receiptdate > current_date
    returned = rng.integers(0, 2, size=n_lines) == 0
    lineitem = _table(
        "lineitem",
        l_orderkey=l_orderkey,
        l_partkey=l_partkey,
        l_quantity=l_quantity,
        l_extendedprice=l_extendedprice,
        l_discount=l_discount,
        l_tax=l_tax,
        l_returnflag=(("A", "R", "N"), np.where(open_line, 2, returned.astype(np.intp))),
        l_linestatus=(("F", "O"), open_line.astype(np.intp)),
        l_shipdate=l_shipdate.astype(np.int64),
        l_commitdate=l_commitdate.astype(np.int64),
        l_receiptdate=l_receiptdate.astype(np.int64),
        l_shipmode=_pick(rng, SHIP_MODES, n_lines),
        l_shipinstruct=_pick(rng, SHIP_INSTRUCTIONS, n_lines),
    )

    return TpchData(
        scale_factor=scale_factor,
        orders=orders,
        lineitem=lineitem,
        part=part,
        customer=customer,
    )


def load_catalog(scale_factor: float = 0.01, seed: int = 2021) -> Catalog:
    """Generate the dataset and register it in a fresh catalog."""
    return generate(scale_factor, seed).register_all(Catalog())
