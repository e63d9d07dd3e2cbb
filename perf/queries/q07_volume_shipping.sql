-- Q7-shaped trade volume: nation joined twice under different
-- aliases (supplier side and customer side), OR of name-pair
-- conjunctions on dictionary columns.
-- compare: ordered
SELECT
  n1.n_name AS supp_nation,
  n2.n_name AS cust_nation,
  sum(l.l_extendedprice * (1 - l.l_discount)) AS volume
FROM supplier s
JOIN lineitem l ON s.s_suppkey = l.l_suppkey
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n1 ON s.s_nationkey = n1.n_nationkey
JOIN nation n2 ON c.c_nationkey = n2.n_nationkey
WHERE (n1.n_name = 'france' AND n2.n_name = 'germany')
   OR (n1.n_name = 'germany' AND n2.n_name = 'france')
GROUP BY n1.n_name, n2.n_name
ORDER BY 1 ASC NULLS LAST, 2 ASC NULLS LAST
