-- Q15-shaped top supplier: uncorrelated scalar subquery computing the
-- maximum balance, equality against it in WHERE.
SELECT s.s_suppkey, s.s_name, s.s_acctbal
FROM supplier s
WHERE s.s_acctbal = (SELECT max(s2.s_acctbal) FROM supplier s2)
