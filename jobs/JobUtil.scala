package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments
import repro.socialdata.{SocialConfig, SocialData}

/** Shared session/scale plumbing for the spark-submit entrypoints. Each job
  * reproduces one table/figure of the evaluation section; pass `--tiny` to run
  * at unit-test scale.
  */
object JobUtil {

  /** Local session mirroring the test harness settings. */
  def session(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", value = false)
      .getOrCreate()

  /** Dataset scale: bench scale by default, `--tiny` for a smoke run. */
  def scaleOf(args: Array[String], bench: SocialConfig): SocialConfig =
    if (args.contains("--tiny")) SocialData.tiny else bench

  def qualityScale(args: Array[String]): SocialConfig =
    scaleOf(args, Experiments.benchQuality)
}
