/**
 * @file
 * Hardware cost models (the open substitution for the paper's Synopsys
 * 40 nm synthesis/layout flow).
 *
 * Three layers of modeling:
 *  1. Bitwidth analysis through the fast-algorithm transforms: an
 *     integer transform row with absolute-coefficient sum s grows an
 *     8-bit operand to 8 + ceil(log2 s) bits (paper Fig. 3).
 *  2. Multiplier complexity ~ product of input bitwidths; adders and
 *     shifters ~ operand width (Section III-D). This regenerates
 *     Table I's rightmost column and Fig. 12's area axis.
 *  3. An accelerator-level rollup (conv engines + directional-ReLU
 *     units + SRAMs + datapath + control). Unit constants are
 *     calibrated ONCE so the real-valued eCNN configuration reproduces
 *     its published 40 nm area/power; the eRingCNN-n2/n4 numbers are
 *     then derived from the same constants, not fitted.
 */
#ifndef RINGCNN_HW_COST_MODEL_H
#define RINGCNN_HW_COST_MODEL_H

#include <string>
#include <vector>

#include "core/ring.h"

namespace ringcnn::hw {

/** Bit growth of an integer transform: per-row output widths for
 *  `in_bits`-wide inputs (row with |coeff| sum s -> in + ceil(log2 s)). */
std::vector<int> transform_row_bits(const Matd& t, int in_bits);

/** Worst-case output width over all rows. */
int transform_output_bits(const Matd& t, int in_bits);

/** Multiplier-complexity analysis of one ring's fast algorithm. */
struct RingMultCost
{
    std::string ring;
    int n = 1;        ///< tuple dimension
    int m = 1;        ///< real multiplications per ring product
    int grank = 1;    ///< theoretical minimum (Table I column)
    int wx = 8;       ///< widest transformed data operand
    int wg = 8;       ///< widest transformed weight operand
    double mult_units = 64.0;  ///< sum over products of wx_r * wg_r

    /** Weight-storage efficiency vs real (DoF ratio) = n. */
    double storage_eff() const { return n; }
    /** Multiplication-count efficiency n^2/m. */
    double mult_eff() const { return static_cast<double>(n) * n / m; }
    /** 8-bit multiplier-complexity efficiency (Table I, rightmost). */
    double complexity_eff(int bits = 8) const
    {
        return static_cast<double>(n) * n * bits * bits / mult_units;
    }
};

/** Analyses the registered ring's shipped fast algorithm at `bits`. */
RingMultCost ring_mult_cost(const Ring& ring, int bits = 8);

/**
 * 40 nm unit constants (area um^2, energy fJ). The starred constants
 * were calibrated against eCNN's published layout (55.2 mm^2 / 6.94 W
 * at 250 MHz, engines ~73%/94%); everything downstream is derived.
 */
struct TechConstants
{
    double mult_area_per_bit2 = 2.45;  ///< * um^2 per (wx*wg) bit-product
    double add_area_per_bit = 11.0;    ///< um^2 per adder bit
    double shift_area_per_bit = 11.0;  ///< um^2 per shifter bit
    double unit_overhead_um2 = 2832;   ///< * per computing unit (regs/ctl)
    double mult_energy_per_bit2 = 3.9; ///< * fJ per bit-product per op
    double add_energy_per_bit = 2.8;   ///< fJ per adder bit per op
    double acc_bits = 24;              ///< accumulator width per MAC
    double relu_bits = 30;             ///< directional-ReLU internal width
    double sram_area_per_kb = 0.0025;  ///< mm^2 per KB
    double sram_power_per_kb = 1.2e-4; ///< W per KB (activity-averaged)
    double sram_read_energy_per_bit = 12.0;  ///< fJ per bit read
    double bb_area_mm2 = 2.5;          ///< image block buffers
    double bb_power_w = 0.18;
    double datapath_area_mm2 = 3.1;    ///< block-based inference path
    double datapath_power_w = 0.10;
    double misc_area_mm2 = 6.1;        ///< control, I/O, clocking
    double misc_power_w = 0.12;
    double freq_hz = 250e6;
    /** Synthesis-vs-layout power factor (pre-CTS, no wire parasitics);
     *  used only for Table VIII's synthesis-level comparison. */
    double synthesis_power_factor = 0.60;
};

/** One architectural component of an accelerator. */
struct UnitCost
{
    std::string name;
    double area_mm2 = 0.0;
    double power_w = 0.0;
};

/** Full-accelerator area/power rollup. */
struct AcceleratorCost
{
    std::string name;
    int n = 1;                ///< ring dimension (1 = eCNN baseline)
    int macs = 0;             ///< physical MACs across conv engines
    double weight_kb = 0.0;
    double freq_hz = 250e6;
    std::vector<UnitCost> parts;

    double total_area() const;
    double total_power() const;
    const UnitCost& part(const std::string& name) const;
    /** Equivalent (real-valued) tera-ops/s at the nominal frequency. */
    double equivalent_tops() const;
    /** Equivalent TOPS per watt (layout-level). */
    double tops_per_w() const { return equivalent_tops() / total_power(); }
    /** Energy per cycle in joules (power / frequency). */
    double energy_per_cycle() const { return total_power() / freq_hz; }
};

/**
 * Builds the accelerator cost rollup.
 * @param n ring dimension: 1 builds the real-valued eCNN baseline,
 *          2 and 4 build eRingCNN-n2 / n4 over (RI, fH).
 */
AcceleratorCost build_accelerator_cost(int n, const TechConstants& tc = {});

/** Area of the directional-ReLU blocks for one accelerator (mm^2). */
double dir_relu_area_mm2(int n, const TechConstants& tc = {});

/**
 * Synthesized area of one 32-in/32-out-channel 3x3 convolution-layer
 * engine for the given algebra (Fig. 12's x-axis), in mm^2.
 * @param ring_name registry ring; "R" gives the real-valued engine.
 * @param with_dir_relu adds the directional-ReLU block ((RI, fH)).
 */
double engine_area_mm2(const std::string& ring_name, bool with_dir_relu,
                       const TechConstants& tc = {});

/** Published comparison points for Table VIII (from the paper; we
 *  cannot re-synthesize competitors). */
struct ExternalAccelerator
{
    std::string name;
    std::string sparsity_kind;
    double tops_per_w;      ///< equivalent TOPS/W as reported
    double compression;     ///< weight compression ratio
    std::string note;
};
std::vector<ExternalAccelerator> external_comparators();

/** Diffy's published numbers projected to 40 nm (paper Table VII). */
struct DiffyModel
{
    double area_mm2 = 55.4;
    double power_w = 6.1;
    double freq_hz = 1e9;
    std::string workload = "FFDNet-level denoising, Full-HD 20 fps";
};
DiffyModel diffy_40nm();

}  // namespace ringcnn::hw

#endif  // RINGCNN_HW_COST_MODEL_H
