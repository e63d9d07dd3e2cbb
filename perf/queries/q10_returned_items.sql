-- Q10-shaped returned items: four-way join filtered by the return
-- flag (dictionary equality on the big table), top-20 by unique key.
-- compare: ordered
SELECT
  c.c_custkey,
  c.c_name,
  n.n_name,
  sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
WHERE l.l_returnflag = 'r'
  AND o.o_orderdate >= 8700 AND o.o_orderdate < 9100
GROUP BY c.c_custkey, c.c_name, n.n_name
ORDER BY 1 ASC NULLS LAST
LIMIT 20
