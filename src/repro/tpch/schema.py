"""TPC-H schema subset used by queries 4, 12, 14, and 19.

Only the columns those queries touch are generated; dates are stored as
INT64 days since 1970-01-01, prices as FLOAT64 dollars, and categorical
strings as the library's STRING atom: fixed-width ``<U32`` unicode in the
table, which also keeps each string column's sorted dictionary and int32
codes (see :class:`repro.storage.table.Table`); a lowered query runs on the
codes and decodes them only in its result frame.
"""

from __future__ import annotations

from repro.types.atoms import DATE, FLOAT64, INT64, STRING
from repro.types.tuples import TupleType

__all__ = [
    "CUSTOMER_SCHEMA",
    "MARKET_SEGMENTS",
    "RETURN_FLAGS",
    "LINE_STATUSES",
    "ORDERS_SCHEMA",
    "LINEITEM_SCHEMA",
    "PART_SCHEMA",
    "ORDER_PRIORITIES",
    "SHIP_MODES",
    "SHIP_INSTRUCTIONS",
    "TYPE_SYLLABLES",
    "CONTAINER_SYLLABLES",
    "ROWS_PER_SF",
]

ORDERS_SCHEMA = TupleType.of(
    o_orderkey=INT64,
    o_custkey=INT64,
    o_orderdate=DATE,
    o_orderpriority=STRING,
    o_shippriority=INT64,
)

CUSTOMER_SCHEMA = TupleType.of(
    c_custkey=INT64,
    c_mktsegment=STRING,
)

LINEITEM_SCHEMA = TupleType.of(
    l_orderkey=INT64,
    l_partkey=INT64,
    l_quantity=INT64,
    l_extendedprice=FLOAT64,
    l_discount=FLOAT64,
    l_tax=FLOAT64,
    l_returnflag=STRING,
    l_linestatus=STRING,
    l_shipdate=DATE,
    l_commitdate=DATE,
    l_receiptdate=DATE,
    l_shipmode=STRING,
    l_shipinstruct=STRING,
)

PART_SCHEMA = TupleType.of(
    p_partkey=INT64,
    p_brand=STRING,
    p_type=STRING,
    p_size=INT64,
    p_container=STRING,
)

#: Value pools from the TPC-H specification (the subsets the queries use).
MARKET_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
RETURN_FLAGS = ("R", "A", "N")
LINE_STATUSES = ("O", "F")
ORDER_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW")
SHIP_MODES = ("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")
SHIP_INSTRUCTIONS = ("DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN")
TYPE_SYLLABLES = (
    ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"),
    ("ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"),
    ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER"),
)
CONTAINER_SYLLABLES = (
    ("SM", "LG", "MED", "JUMBO", "WRAP"),
    ("CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"),
)

#: Base cardinalities at scale factor 1 (lineitem is ~4 lines per order).
ROWS_PER_SF = {"orders": 1_500_000, "part": 200_000, "customer": 150_000}
