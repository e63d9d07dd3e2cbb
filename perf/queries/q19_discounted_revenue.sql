-- Q19-shaped discounted revenue: disjunction of conjunct bundles
-- mixing dictionary IN-lists, BETWEEN on integers, and a dictionary
-- equality; one output row.
SELECT sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
WHERE (p.p_container IN ('sm pack', 'med bag')
       AND l.l_quantity BETWEEN 1 AND 20
       AND l.l_shipmode IN ('air', 'reg air'))
   OR (p.p_container IN ('jumbo box', 'lg case')
       AND l.l_quantity BETWEEN 10 AND 40
       AND l.l_shipinstruct = 'deliver in person')
