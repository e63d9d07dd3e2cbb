-- Set difference over the two nation-key columns: customer nations
-- that have no supplier.
-- compare: ordered
SELECT c.c_nationkey AS nk FROM customer c
EXCEPT
SELECT s.s_nationkey AS nk FROM supplier s
ORDER BY 1 ASC NULLS LAST
