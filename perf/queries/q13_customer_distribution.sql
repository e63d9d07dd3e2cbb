-- Q13-shaped customer order counts: LEFT JOIN so customers without
-- orders survive with count 0, grouped per customer.
-- compare: ordered
SELECT c.c_custkey, count(o.o_orderkey) AS c_count
FROM customer c
LEFT JOIN orders o ON c.c_custkey = o.o_custkey
GROUP BY c.c_custkey
ORDER BY 1 ASC NULLS LAST
