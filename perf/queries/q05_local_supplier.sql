-- Q5-shaped local supplier volume: six-way join across the whole key
-- chain, region name filter on a dictionary column, plus the
-- customer-nation = supplier-nation side condition.
-- compare: ordered
SELECT n.n_name, sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation n ON s.s_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
WHERE r.r_name = 'asia'
  AND c.c_nationkey = s.s_nationkey
  AND o.o_orderdate >= 8400 AND o.o_orderdate < 9500
GROUP BY n.n_name
ORDER BY 1 ASC NULLS LAST
