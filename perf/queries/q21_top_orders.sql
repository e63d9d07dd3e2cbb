-- Order-by-limit-offset over stored values: float sort key with a
-- unique integer tiebreaker keeps the page deterministic.
-- compare: ordered
SELECT o.o_orderkey, o.o_totalprice
FROM orders o
ORDER BY 2 DESC NULLS LAST, 1 ASC NULLS LAST
LIMIT 15 OFFSET 5
