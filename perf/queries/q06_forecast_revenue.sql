-- Q6-shaped forecast revenue: single-table scan with a date range
-- (FOR range on codes), a float BETWEEN, and an integer comparison;
-- one output row.
SELECT sum(l.l_extendedprice * l.l_discount) AS revenue
FROM lineitem l
WHERE l.l_shipdate >= 8400 AND l.l_shipdate < 8765
  AND l.l_discount BETWEEN 0.02 AND 0.06
  AND l.l_quantity < 24
