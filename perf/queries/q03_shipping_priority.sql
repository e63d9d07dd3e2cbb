-- Q3-shaped shipping priority: three-way join with a dictionary
-- equality predicate on the customer segment, grouped revenue,
-- deterministic integer sort keys plus LIMIT.
-- compare: ordered
SELECT
  o.o_orderkey,
  o.o_orderdate,
  sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = 'building'
  AND o.o_orderdate < 9200
  AND l.l_shipdate > 9200
GROUP BY o.o_orderkey, o.o_orderdate
ORDER BY 2 ASC NULLS LAST, 1 ASC NULLS LAST
LIMIT 10
