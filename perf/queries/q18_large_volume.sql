-- Q18-shaped large-volume customers: IN-subquery with GROUP BY and
-- HAVING inside, outer three-way join re-aggregating the quantity.
-- compare: ordered
SELECT
  c.c_custkey,
  o.o_orderkey,
  o.o_orderdate,
  o.o_totalprice,
  sum(l.l_quantity) AS total_qty
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON o.o_orderkey = l.l_orderkey
WHERE o.o_orderkey IN (
  SELECT l2.l_orderkey
  FROM lineitem l2
  GROUP BY l2.l_orderkey
  HAVING sum(l2.l_quantity) > 150
)
GROUP BY c.c_custkey, o.o_orderkey, o.o_orderdate, o.o_totalprice
ORDER BY 2 ASC NULLS LAST
LIMIT 25
