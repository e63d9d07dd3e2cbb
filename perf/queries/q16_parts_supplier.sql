-- Q16-shaped part/supplier relationship: COUNT(DISTINCT) per brand
-- and container (both dictionary columns), a <> filter that prunes
-- in code space, and an integer IN-list.
-- compare: ordered
SELECT p.p_brand, p.p_container, count(DISTINCT l.l_suppkey) AS supplier_cnt
FROM part p
JOIN lineitem l ON p.p_partkey = l.l_partkey
WHERE p.p_brand <> 'brand#11'
  AND p.p_size IN (1, 4, 7, 10, 13, 16, 19, 22)
GROUP BY p.p_brand, p.p_container
ORDER BY 1 ASC NULLS LAST, 2 ASC NULLS LAST
