-- Q1-shaped pricing summary: full aggregate sweep over the largest
-- table, grouped by the two low-cardinality flag columns that
-- dictionary-encode, with a date cutoff evaluable on FOR offsets.
-- compare: ordered
SELECT
  l.l_returnflag,
  l.l_linestatus,
  sum(l.l_quantity) AS sum_qty,
  sum(l.l_extendedprice) AS sum_base_price,
  sum(l.l_extendedprice * (1 - l.l_discount)) AS sum_disc_price,
  avg(l.l_quantity) AS avg_qty,
  avg(l.l_discount) AS avg_disc,
  count(*) AS count_order
FROM lineitem l
WHERE l.l_shipdate <= 10400
GROUP BY l.l_returnflag, l.l_linestatus
ORDER BY 1 ASC NULLS LAST, 2 ASC NULLS LAST
