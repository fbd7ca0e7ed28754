//! Seeds and pinned output fingerprints.
//!
//! A pin is the FNV-1a fingerprint of a workload's output at one seed
//! and benchmark sizes. Thread count, cache state and tracing never
//! change results, so a pin holds for every run at that seed; a mismatch
//! means the program's answer changed, and counts as a failed operation.
//! Every seed, pinned or not, is also checked against itself: every
//! iteration must reproduce the first.

use crate::workloads::Kind;

/// The CLI's study seed.
pub const DEFAULT_SEED: u64 = 2019;

/// A seed kept out of every tuning decision, for confirming later
/// claims on inputs the benchmark was not shaped around.
pub const HELD_OUT_SEED: u64 = 7919;

/// Fingerprints per seed, in [`Kind::ALL`] order: paper-cold,
/// sweep-fixed, sweep-adaptive, report-warm.
#[rustfmt::skip]
const PINS: [(u64, [u64; 4]); 23] = [
    (0, [0xb342_76c0_0e70_21b3, 0xf1b7_c9c6_281c_2e69, 0x2e13_fd1f_b742_9ae5, 0x713f_ae3e_8e9c_e172]),
    (1, [0x4812_98da_0b1a_f467, 0x53e7_5170_9db6_99d0, 0x935b_5b30_74af_2095, 0xb617_cfb5_4406_f812]),
    (2, [0x4e70_50c2_5988_3896, 0x329f_d20e_cab2_c74a, 0x15f7_ffa5_926f_43a2, 0x0e41_25cd_58c1_1a30]),
    (3, [0xd208_c867_6b5c_31dd, 0x435d_8495_31a6_732c, 0x771c_97f0_8cc4_b87c, 0xf591_a1b7_03a1_6be5]),
    (4, [0x854a_3919_a872_71ae, 0x79fb_4e5e_63d9_3eb9, 0x088f_3ce2_f773_19a4, 0xc2f3_62cf_4d2f_27e3]),
    (5, [0xfdd6_10c2_0d7f_9b02, 0x2d9c_5c45_0fc7_4410, 0x82de_b622_ad20_6ff0, 0xa64d_4a44_6bd4_a956]),
    (6, [0x04dd_0d9c_33b2_31ad, 0x6217_df47_71e3_8e42, 0xf636_d4b8_ecae_5bf9, 0x2f7e_51a5_7174_bb77]),
    (7, [0xf395_a355_7a3f_ff59, 0x3994_a980_688e_41ad, 0x9d0d_e427_38e3_bace, 0x9c0e_c41e_075f_5777]),
    (8, [0x0392_d293_b1cd_e43d, 0x2266_6dea_ec7b_a0d8, 0x41ae_310f_11e2_4a5a, 0xb55f_994d_c852_5047]),
    (9, [0xec15_9083_c4f9_5d24, 0xe2d4_de84_7ce9_7576, 0x4d38_a47d_23ae_0495, 0x06be_89e8_75fa_841a]),
    (10, [0x1900_ac2f_3c46_0b99, 0xe076_13c8_3db5_c23b, 0x4c16_e3ba_9fff_00b0, 0x3308_b0bf_6226_27be]),
    (11, [0xd446_f1e9_3f68_4ccb, 0xced3_b757_46af_2fa2, 0x3bd9_70aa_7c55_cd45, 0x60ca_ce59_12d9_8169]),
    (12, [0xe0d9_22d1_25bc_ebae, 0x02b0_b6bd_4788_e4f3, 0xc1fc_9c0e_c137_613c, 0x47d6_2586_14cc_3759]),
    (13, [0x9006_cab8_84f5_aae0, 0x9721_bba5_1c54_d010, 0x5af2_edf6_2d66_24a4, 0x12d1_ddef_100b_8c13]),
    (14, [0x938e_f8fc_19ba_3604, 0x05db_9407_9327_cb4a, 0xea8d_8987_ebf8_057c, 0x0d34_9b35_4fb3_16fa]),
    (15, [0x4bdc_80fe_1f26_9454, 0x33c4_85ab_541f_edc8, 0xf424_314a_0c49_3e75, 0x55a8_619a_877e_3905]),
    (16, [0x4db1_d1ab_c063_2f9c, 0xa7e5_91c2_8f32_21cf, 0x287b_903e_b149_9eb9, 0xe5b2_84bd_8bb7_244b]),
    (17, [0x6734_8cb2_e340_44d4, 0x3d36_2b2e_5bd0_282a, 0x1e44_38ca_4338_97ce, 0x9344_edbf_715a_29b1]),
    (18, [0xe78f_3a44_6e50_915b, 0xdf69_9c73_bb5c_666d, 0xfe58_0d56_fbec_30a0, 0x88f8_cb4b_2e49_eb8d]),
    (19, [0x99d6_a844_5419_6ce1, 0xd228_366b_af22_d38f, 0x1460_d6c2_2727_1532, 0x425d_1232_c31a_0e46]),
    (20, [0xcff2_b3fb_8901_c6a5, 0x7328_d48a_913a_13b8, 0xede2_4860_db1a_cb80, 0xdeb8_1322_3c0a_7a27]),
    (2019, [0xdb29_0070_dc61_915e, 0x9b0a_0c84_717f_056b, 0x96a6_2bc5_ea80_7db7, 0x253b_9d1d_02e0_aa9d]),
    (7919, [0x845f_b742_b762_fb35, 0x67c5_5e59_2075_dc6b, 0xaa66_92e5_268b_3018, 0xb634_44f8_8584_cc44]),
];

/// The pinned fingerprint of `kind` at `seed`, if that seed is pinned.
pub fn pinned(kind: Kind, seed: u64) -> Option<u64> {
    let column = Kind::ALL.iter().position(|k| *k == kind)?;
    PINS.iter()
        .find(|(s, _)| *s == seed)
        .map(|(_, fps)| fps[column])
}
