-- Q12-shaped shipping modes: CASE aggregates bucketing order
-- priorities, IN-list on the dictionary-coded ship mode, and
-- three row-wise date comparisons.
-- compare: ordered
SELECT
  l.l_shipmode,
  sum(CASE WHEN o.o_orderpriority IN ('1-urgent', '2-high')
      THEN 1 ELSE 0 END) AS high_line_count,
  sum(CASE WHEN o.o_orderpriority NOT IN ('1-urgent', '2-high')
      THEN 1 ELSE 0 END) AS low_line_count
FROM orders o
JOIN lineitem l ON o.o_orderkey = l.l_orderkey
WHERE l.l_shipmode IN ('mail', 'ship', 'rail')
  AND l.l_shipdate < l.l_commitdate
  AND l.l_commitdate < l.l_receiptdate
  AND l.l_receiptdate >= 8400 AND l.l_receiptdate < 9500
GROUP BY l.l_shipmode
ORDER BY 1 ASC NULLS LAST
