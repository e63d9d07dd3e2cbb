-- Q14-shaped promotion effect: ratio of two CASE aggregates with a
-- LIKE prefix filter on part type; one output row.
SELECT
  100.0 * sum(CASE WHEN p.p_type LIKE 'promo%'
              THEN l.l_extendedprice * (1 - l.l_discount)
              ELSE 0.0 END)
        / sum(l.l_extendedprice * (1 - l.l_discount)) AS promo_revenue
FROM lineitem l
JOIN part p ON l.l_partkey = p.p_partkey
WHERE l.l_shipdate >= 9000 AND l.l_shipdate < 9120
