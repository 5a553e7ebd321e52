// DEL_DOT_VEC_2D: divergence of a velocity field on a 2-D staggered mesh,
// iterating over the *real* (interior) zones through an indirection list —
// this is the suite's canonical ListSegment kernel.
#include <cmath>

#include "kernels/apps/apps.hpp"

namespace rperf::kernels::apps {

DEL_DOT_VEC_2D::DEL_DOT_VEC_2D(const RunParams& params)
    : KernelBase("DEL_DOT_VEC_2D", GroupID::Apps, params) {
  set_default_size(500000);
  set_default_reps(5);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_all_variants();
  m_dim = static_cast<Index_type>(
      std::llround(std::sqrt(static_cast<double>(actual_prob_size()))));
  if (m_dim < 4) m_dim = 4;

  const double nz = static_cast<double>((m_dim - 2) * (m_dim - 2));
  auto& t = traits_rw();
  t.bytes_read = 8.0 * 9.0 * nz;  // 4 arrays x 4 corners, partially cached,
                                  // + indirection list
  t.bytes_written = 8.0 * nz;
  t.flops = 36.0 * nz;
  t.working_set_bytes = 8.0 * 6.0 * nz;
  t.branches = nz;
  t.int_ops = 12.0 * nz;  // indirection
  t.avg_parallelism = nz;
  t.fp_eff_cpu = 0.35;
  t.fp_eff_gpu = 0.60;
  t.access_eff_cpu = 0.8;
  t.access_eff_gpu = 0.7;
  t.l1_hit = 0.6;
  t.code_complexity = 1.5;
}

void DEL_DOT_VEC_2D::setUp(VariantID) {
  const Index_type nn = m_dim * m_dim;
  suite::init_data(m_a, nn, 1901u);      // x
  suite::init_data(m_b, nn, 1907u);      // y
  suite::init_data(m_c, nn, 1913u);      // xdot
  suite::init_data(m_d, nn, 1931u);      // ydot
  suite::init_data_const(m_e, nn, 0.0);  // div

  // Real-zone indirection list: interior zones only.
  m_zones.resize(static_cast<std::size_t>((m_dim - 2) * (m_dim - 2)));
  std::size_t z = 0;
  for (Index_type i = 1; i < m_dim - 1; ++i) {
    for (Index_type j = 1; j < m_dim - 1; ++j) {
      m_zones[z++] = i * m_dim + j;
    }
  }
}

void DEL_DOT_VEC_2D::runVariant(VariantID vid) {
  using namespace ::rperf::port;
  const Index_type d = m_dim;
  const double* x = m_a.data();
  const double* y = m_b.data();
  const double* xdot = m_c.data();
  const double* ydot = m_d.data();
  double* div = m_e.data();
  const double ptiny = 1.0e-25;
  const double half = 0.5;

  auto zone_body = [=](Index_type zc) {
    // Corner nodes of zone zc: zc, zc+1, zc+d+1, zc+d.
    const Index_type n1 = zc, n2 = zc + 1, n3 = zc + d + 1, n4 = zc + d;
    const double xi = half * (x[n1] + x[n2] - x[n3] - x[n4]);
    const double xj = half * (x[n2] + x[n3] - x[n4] - x[n1]);
    const double yi = half * (y[n1] + y[n2] - y[n3] - y[n4]);
    const double yj = half * (y[n2] + y[n3] - y[n4] - y[n1]);
    const double fxi = half * (xdot[n1] + xdot[n2] - xdot[n3] - xdot[n4]);
    const double fxj = half * (xdot[n2] + xdot[n3] - xdot[n4] - xdot[n1]);
    const double fyi = half * (ydot[n1] + ydot[n2] - ydot[n3] - ydot[n4]);
    const double fyj = half * (ydot[n2] + ydot[n3] - ydot[n4] - ydot[n1]);
    const double rarea = 1.0 / (xi * yj - xj * yi + ptiny);
    const double dfxdx = rarea * (fxi * yj - fxj * yi);
    const double dfydy = rarea * (fyj * xi - fyi * xj);
    const double affine = (fyi * xj - fxi * yj + fxj * yi - fyj * xi) * rarea;
    div[zc] = dfxdx + dfydy + affine;
  };

  const ListSegment zones(m_zones.data(), m_zones.size());
  const Index_type nzones = zones.size();
  const Index_type* zlist = m_zones.data();

  for (Index_type r = 0; r < run_reps(); ++r) {
    switch (vid) {
      case VariantID::Base_Seq:
      case VariantID::Lambda_Seq:
        for (Index_type z = 0; z < nzones; ++z) zone_body(zlist[z]);
        break;
      case VariantID::RAJA_Seq:
        forall<seq_exec>(zones, zone_body);
        break;
      case VariantID::Lambda_OpenMP:
      case VariantID::Base_OpenMP: {
#pragma omp parallel for
        for (Index_type z = 0; z < nzones; ++z) zone_body(zlist[z]);
        break;
      }
      case VariantID::RAJA_OpenMP:
        forall<omp_parallel_for_exec>(zones, zone_body);
        break;
    }
  }
}

long double DEL_DOT_VEC_2D::computeChecksum(VariantID) {
  return suite::calc_checksum(m_e);
}

void DEL_DOT_VEC_2D::tearDown(VariantID) {
  free_data(m_a, m_b, m_c, m_d, m_e);
  m_zones.clear();
  m_zones.shrink_to_fit();
}

}  // namespace rperf::kernels::apps
