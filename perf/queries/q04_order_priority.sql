-- Q4-shaped order priority check: IN-subquery whose inner predicate
-- compares two date columns row-wise (late deliveries).
-- compare: ordered
SELECT o.o_orderpriority, count(*) AS order_count
FROM orders o
WHERE o.o_orderdate >= 8500 AND o.o_orderdate < 8900
  AND o.o_orderkey IN (
    SELECT l.l_orderkey
    FROM lineitem l
    WHERE l.l_commitdate < l.l_receiptdate
  )
GROUP BY o.o_orderpriority
ORDER BY 1 ASC NULLS LAST
