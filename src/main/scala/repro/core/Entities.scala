package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import scala.annotation.unused

/** Proximity-based entity expansion (Section IV-B: "If two entities often
  * co-occurred closely in the same category, we believe they are strongly
  * related"). Maps each entity to its top expansion entities with weights.
  */
final case class EntityExpansion(exp: Map[Int, Seq[(Int, Double)]]) {
  def of(e: Int): Seq[(Int, Double)] = exp.getOrElse(e, Seq.empty)
}

object Entities {

  /** Empty expansion — the ssRec-ne variant. */
  val none: EntityExpansion = EntityExpansion(Map.empty)

  /** Exploded (itemId, entity) pairs — the relational view of item entity
    * sets, shared with the DuckDB oracle in tests.
    */
  def explodedEntities(items: DataFrame): DataFrame =
    items.select(col("itemId"), explode(col("entities")).as("entity"))

  /** Within-item co-occurrence counts of ordered entity pairs (e1 ≠ e2),
    * computed with a DataFrame self-join — the proximity statistic of the
    * expansion heuristic (entities in one description are maximally proximate).
    */
  def cooccurrence(items: DataFrame): DataFrame = {
    val pairs = explodedEntities(items)
    pairs.as("a")
      .join(pairs.as("b"), col("a.itemId") === col("b.itemId") && col("a.entity") =!= col("b.entity"))
      .groupBy(col("a.entity").as("e1"), col("b.entity").as("e2"))
      .agg(count(lit(1)).as("pair_cnt"))
  }

  /** Mine the expansion table: `w(e→e') = cooc(e,e') / cnt(e)`, keeping the
    * `topPerEntity` strongest expansions with weight ≥ `minWeight`. The result
    * is collected — expansion tables are small (bounded by the entity
    * vocabulary) and are broadcast into the scorer.
    */
  def mine(@unused spark: SparkSession, items: DataFrame,
           topPerEntity: Int = 3, minWeight: Double = 0.2): EntityExpansion = {
    val entCnt = explodedEntities(items)
      .groupBy(col("entity").as("e1")).agg(count(lit(1)).as("e_cnt"))
    val weighted = cooccurrence(items)
      .join(entCnt, "e1")
      .withColumn("w", col("pair_cnt") / col("e_cnt"))
      .where(col("w") >= minWeight)
    val ranked = weighted
      .withColumn("rk", row_number().over(Window.partitionBy("e1").orderBy(col("w").desc, col("e2"))))
      .where(col("rk") <= topPerEntity)
      .select("e1", "e2", "w")
    val rows = ranked.collect()
    EntityExpansion(
      rows.groupBy(_.getInt(0)).map { case (e1, rs) =>
        e1 -> rs.map(r => (r.getInt(1), r.getDouble(2))).sortBy(-_._2).toSeq
      }
    )
  }
}
