package repro.jobs

import repro.exp.Experiments
import repro.socialdata.SocialData

/** Reproduces Fig. 5: BiHMM vs HMM next-category prediction accuracy by
  * optimal hidden-state group.
  */
object Fig5Job {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("fig5")
    val cfg =
      if (args.contains("--tiny")) SocialData.tiny.copy(plantedStatesMod8 = true)
      else Experiments.benchFig5
    val rows = Experiments.fig5(spark, cfg, Experiments.defaultSs(cfg))
    println(Experiments.render(
      s"Fig 5 — prediction accuracy by state group (${cfg.name})",
      Seq("States", "Users", "HMM acc", "BiHMM acc"),
      rows.map(r => Seq(r.group.toString, r.users.toString,
                        f"${r.accHmm}%.4f", f"${r.accBiHmm}%.4f"))))
    spark.stop()
  }
}
